package codec

import (
	"errors"
	"math"
	"testing"
)

// boundaries are the values where the varint length changes, plus the
// extremes.
var boundaries = []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21,
	math.MaxUint32, 1 << 56, math.MaxUint64}

func TestUvarintRoundTripAndSize(t *testing.T) {
	for _, v := range boundaries {
		enc := AppendUvarint(nil, v)
		if len(enc) != UvarintSize(v) {
			t.Errorf("UvarintSize(%d) = %d, encoded %d bytes", v, UvarintSize(v), len(enc))
		}
		r := NewReader(enc)
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Errorf("Uvarint(%x) = %d, %v; want %d", enc, got, r.Finish(), v)
		}
	}
}

func TestUvarintsReadsARun(t *testing.T) {
	var buf []byte
	for _, v := range boundaries {
		buf = AppendUvarint(buf, v)
	}
	got := make([]uint64, len(boundaries))
	ptrs := make([]*uint64, len(got))
	for i := range got {
		ptrs[i] = &got[i]
	}
	r := NewReader(buf)
	r.Uvarints(ptrs...)
	if err := r.Finish(); err != nil {
		t.Fatalf("Uvarints: %v", err)
	}
	for i, v := range boundaries {
		if got[i] != v {
			t.Errorf("Uvarints[%d] = %d, want %d", i, got[i], v)
		}
	}
	// A run cut short fails like the single reads do.
	r = NewReader(buf[:len(buf)-1])
	r.Uvarints(ptrs...)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("truncated run: err = %v", r.Err())
	}
}

// TestUvarintRejectsNonMinimal pins canonical decoding: a value padded with
// a zero continuation byte has a shorter form and must not decode.
func TestUvarintRejectsNonMinimal(t *testing.T) {
	for _, enc := range [][]byte{
		{0x80, 0x00},       // 0 in two bytes
		{0xff, 0x00},       // 127 in two bytes
		{0x80, 0x81, 0x00}, // 128 in three bytes
	} {
		r := NewReader(enc)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("Uvarint(%x) err = %v, want ErrNonCanonical", enc, r.Err())
		}
	}
}

func TestUvarintMalformed(t *testing.T) {
	for _, tc := range []struct {
		enc  []byte
		want error
	}{
		{nil, ErrTruncated},
		{[]byte{0x80}, ErrTruncated},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, ErrOversized},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, ErrOversized},
	} {
		r := NewReader(tc.enc)
		r.Uvarint()
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("Uvarint(%x) err = %v, want %v", tc.enc, r.Err(), tc.want)
		}
	}
}

func TestNarrowIntsRejectOverflow(t *testing.T) {
	r := NewReader(AppendUvarint(nil, math.MaxUint16+1))
	if r.Uint16(); !errors.Is(r.Err(), ErrOversized) {
		t.Errorf("Uint16 of 65536: err = %v", r.Err())
	}
	r = NewReader(AppendUvarint(nil, math.MaxUint32+1))
	if r.Uint32(); !errors.Is(r.Err(), ErrOversized) {
		t.Errorf("Uint32 of 2^32: err = %v", r.Err())
	}
	r = NewReader(AppendUvarint(AppendUvarint(nil, math.MaxUint16), math.MaxUint32))
	if a, b := r.Uint16(), r.Uint32(); a != math.MaxUint16 || b != math.MaxUint32 || r.Finish() != nil {
		t.Errorf("narrow maxima: %d %d %v", a, b, r.Finish())
	}
}

func TestBoolCanonical(t *testing.T) {
	r := NewReader(AppendBool(AppendBool(nil, true), false))
	if !r.Bool() || r.Bool() || r.Finish() != nil {
		t.Errorf("bool round trip failed: %v", r.Finish())
	}
	r = NewReader([]byte{2})
	if r.Bool(); !errors.Is(r.Err(), ErrNonCanonical) {
		t.Errorf("Bool(2) err = %v", r.Err())
	}
}

func TestLengthPrefixedFields(t *testing.T) {
	buf := AppendString(nil, "key")
	buf = AppendBytes(buf, []byte{1, 2})
	if len(buf) != BytesSize(3)+BytesSize(2) {
		t.Errorf("BytesSize disagrees with the encoding")
	}
	r := NewReader(buf)
	if s, b := r.String(), r.Bytes(); s != "key" || len(b) != 2 || r.Finish() != nil {
		t.Errorf("round trip: %q %v %v", s, b, r.Finish())
	}
	// A length past the input is truncation; past maxField is oversized.
	r = NewReader(AppendUvarint(nil, 5))
	if r.View(); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("short field err = %v", r.Err())
	}
	r = NewReader(AppendUvarint(nil, maxField+1))
	if r.View(); !errors.Is(r.Err(), ErrOversized) {
		t.Errorf("huge field err = %v", r.Err())
	}
}

func TestCountBound(t *testing.T) {
	// Four bytes of room hold at most two 2-byte items.
	body := []byte{0, 0, 0, 0}
	r := NewReader(append(AppendUvarint(nil, 2), body...))
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Errorf("fitting count: %d %v", n, r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 3), body...))
	if n := r.Count(2); n != 0 || !errors.Is(r.Err(), ErrOversized) {
		t.Errorf("overfull count: %d %v", n, r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, maxCount+1), make([]byte, maxCount+2)...))
	if r.Count(1); !errors.Is(r.Err(), ErrOversized) {
		t.Errorf("count above maxCount: %v", r.Err())
	}
}

func TestFailureIsSticky(t *testing.T) {
	r := NewReader([]byte{0x80})
	r.Uvarint()
	if r.Byte() != 0 || r.String() != "" || r.Uvarint() != 0 || !errors.Is(r.Finish(), ErrTruncated) {
		t.Errorf("reads after a failure must return zero values and keep the first error")
	}
	r = NewReader([]byte{1, 2})
	r.Byte()
	if r.Finish() == nil {
		t.Errorf("trailing byte accepted")
	}
}

// TestUvarintFastPathAllocFree guards the decoder's hot path.
func TestUvarintFastPathAllocFree(t *testing.T) {
	buf := AppendUvarint(AppendUvarint(nil, 7), 300)
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(buf)
		r.Uvarint()
		r.Uvarint()
	}); n != 0 {
		t.Errorf("Uvarint allocates %.1f per call pair", n)
	}
}
