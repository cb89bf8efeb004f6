package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Decode errors.
var (
	// ErrTruncated reports input that ends inside a field.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrOversized reports an implausible length or count, or a value too
	// wide for its field.
	ErrOversized = errors.New("codec: oversized field")
	// ErrNonCanonical reports a non-minimal varint or a boolean byte other
	// than 0 or 1.
	ErrNonCanonical = errors.New("codec: non-canonical encoding")
)

// maxField caps any single length-prefixed field at 64 MiB.
const maxField = 64 << 20

// maxCount caps any item count, whatever the input length.
const maxCount = 1 << 20

// UvarintSize returns the encoded length of v.
func UvarintSize(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// BytesSize returns the encoded length of an n-byte string or byte slice.
func BytesSize(n int) int {
	return UvarintSize(uint64(n)) + n
}

// AppendUvarint appends the minimal varint encoding of v.
func AppendUvarint(buf []byte, v uint64) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, v)
}

// AppendString appends s with its varint length prefix.
func AppendString(buf []byte, s string) []byte {
	return append(AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendBytes appends b with its varint length prefix.
func AppendBytes(buf, b []byte) []byte {
	return append(AppendUvarint(buf, uint64(len(b))), b...)
}

// AppendBool appends a boolean as one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader is a bounds-checked sequential decoder over one buffer. After any
// failure all subsequent reads return zero values and Err reports the first
// cause.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader {
	return Reader{buf: data}
}

// Err returns the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

// fail records err as the decode failure unless one is already recorded,
// and ends the input so that every later read fails too.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = r.buf[:r.pos]
}

// Finish returns the first decode failure or, failing that, an error if any
// input is left unread.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool reads a boolean byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrNonCanonical)
		return false
	}
}

// Uvarint reads a minimal varint.
func (r *Reader) Uvarint() uint64 { return r.uvarint(math.MaxUint64) }

// Uvarints reads consecutive minimal varints into dst, in order. A run of
// header fields costs one call this way rather than one per field.
func (r *Reader) Uvarints(dst ...*uint64) {
	for _, d := range dst {
		if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 {
			*d = uint64(r.buf[p])
			r.pos = p + 1
		} else {
			*d = r.uvarint(math.MaxUint64)
		}
	}
}

// Uint32 reads a varint that must fit in 32 bits.
func (r *Reader) Uint32() uint32 { return uint32(r.uvarint(math.MaxUint32)) }

// Uint16 reads a varint that must fit in 16 bits.
func (r *Reader) Uint16() uint16 { return uint16(r.uvarint(math.MaxUint16)) }

// uvarint reads a minimal varint no larger than max. Single-byte values
// take a fast path: every max is at least 0xFFFF, and a failure ends the
// input (see fail), so neither check is needed there.
func (r *Reader) uvarint(max uint64) uint64 {
	if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 {
		r.pos = p + 1
		return uint64(r.buf[p])
	}
	var v uint64
	for i, b := range r.buf[r.pos:] {
		if i == binary.MaxVarintLen64-1 && b > 1 {
			r.fail(ErrOversized) // more than 64 bits
			return 0
		}
		if b < 0x80 {
			if b == 0 {
				// The fast path took every single-byte value, so this is
				// the final byte of a longer form, and a zero there is
				// padding: the value has a shorter encoding.
				r.fail(ErrNonCanonical)
				return 0
			}
			if v |= uint64(b) << (7 * i); v > max {
				r.fail(ErrOversized)
				return 0
			}
			r.pos += i + 1
			return v
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.fail(ErrTruncated)
	return 0
}

// View reads a length-prefixed field and returns it without copying: the
// result aliases the input buffer.
func (r *Reader) View() []byte {
	// Reading a one-byte length here saves short fields the call into
	// uvarint.
	var n uint64
	if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 {
		n = uint64(r.buf[p])
		r.pos = p + 1
	} else {
		n = r.uvarint(maxField)
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// String reads a length-prefixed string (a copy).
func (r *Reader) String() string {
	return string(r.View())
}

// Bytes reads a length-prefixed byte slice into a fresh copy.
func (r *Reader) Bytes() []byte {
	if b := r.View(); b != nil {
		return append(make([]byte, 0, len(b)), b...)
	}
	return nil
}

// Count reads an item count for items that each encode to at least minSize
// bytes. A count above maxCount, or above what the remaining input could
// hold, fails with ErrOversized before the caller allocates for it.
func (r *Reader) Count(minSize int) int {
	n := r.uvarint(maxCount)
	if n > uint64((len(r.buf)-r.pos)/minSize) {
		r.fail(ErrOversized)
		return 0
	}
	return int(n)
}
