package authn

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"recipe/internal/codec"
)

// envelopeSeeds covers every tag combination, a batch envelope with a real
// body, and large header values.
func envelopeSeeds() [][]byte {
	envs := []Envelope{
		{},
		{View: 1, Epoch: 2, Channel: "ch:n1@1->n2@1", Group: 3, Seq: 4, Kind: 100,
			Payload: []byte("payload"), MAC: bytes.Repeat([]byte{9}, macLen)},
		{Seq: 7, Enc: true, Payload: make([]byte, 40), MAC: make([]byte, macLen)},
		{Seq: 9, Batch: true, Payload: appendBatchBody(nil, batchOf(3)), MAC: make([]byte, macLen)},
		{View: math.MaxUint64, Epoch: 1 << 40, Seq: 1 << 20, Kind: math.MaxUint16,
			Group: math.MaxUint32, Enc: true, Batch: true, Channel: "c"},
	}
	seeds := make([][]byte, 0, len(envs))
	for i := range envs {
		seeds = append(seeds, envs[i].AppendTo(nil))
	}
	return seeds
}

// FuzzDecodeEnvelope checks that the envelope decoder never panics and is
// canonical: whatever decodes re-encodes to exactly the input bytes. Verify
// MACs the re-encoded header, so a second byte string that parsed to the
// same header would verify as that header.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, seed := range envelopeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Envelope
		if err := DecodeEnvelopeInto(&e, data); err != nil {
			return
		}
		if enc := e.AppendTo(nil); !bytes.Equal(enc, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, enc)
		}
		if e.Batch {
			items, err := decodeBatchBody(nil, e.Payload)
			if err != nil {
				return
			}
			if enc := appendBatchBody(nil, items); !bytes.Equal(enc, e.Payload) {
				t.Fatalf("batch body re-encode mismatch:\n in  %x\n out %x", e.Payload, enc)
			}
		}
	})
}

// varintBoundaries are the values where a varint's length changes, plus
// the extremes.
var varintBoundaries = []uint64{0, 127, 128, 16383, 16384, math.MaxUint64}

func boundaryBytes(v uint64) []byte { return make([]byte, min(v, 16384)) }

// TestEnvelopeEncodedSizeAtVarintBoundaries checks EncodedSize against
// AppendTo, and AppendTo against a decode/re-encode round trip, with every
// integer field and length prefix at each varint boundary (narrow fields
// clamped to their width).
func TestEnvelopeEncodedSizeAtVarintBoundaries(t *testing.T) {
	fields := map[string]func(e *Envelope, v uint64){
		"View":         func(e *Envelope, v uint64) { e.View = v },
		"Epoch":        func(e *Envelope, v uint64) { e.Epoch = v },
		"Seq":          func(e *Envelope, v uint64) { e.Seq = v },
		"Kind":         func(e *Envelope, v uint64) { e.Kind = uint16(min(v, math.MaxUint16)) },
		"Group":        func(e *Envelope, v uint64) { e.Group = uint32(min(v, math.MaxUint32)) },
		"len(Channel)": func(e *Envelope, v uint64) { e.Channel = string(boundaryBytes(v)) },
		"len(Payload)": func(e *Envelope, v uint64) { e.Payload = boundaryBytes(v) },
		"len(MAC)":     func(e *Envelope, v uint64) { e.MAC = boundaryBytes(v) },
	}
	for name, set := range fields {
		for _, v := range varintBoundaries {
			e := Envelope{Channel: "ab", MAC: make([]byte, macLen), Batch: true}
			set(&e, v)
			enc := e.AppendTo(nil)
			if e.EncodedSize() != len(enc) {
				t.Errorf("%s=%d: EncodedSize %d, encoded %d", name, v, e.EncodedSize(), len(enc))
			}
			var got Envelope
			if err := DecodeEnvelopeInto(&got, enc); err != nil {
				t.Errorf("%s=%d: decode: %v", name, v, err)
				continue
			}
			if !bytes.Equal(got.AppendTo(nil), enc) {
				t.Errorf("%s=%d: re-encode differs", name, v)
			}
		}
	}
}

// TestBatchBodySizeAtVarintBoundaries is the same check for the batch body:
// item count, item kind and payload length.
func TestBatchBodySizeAtVarintBoundaries(t *testing.T) {
	fields := map[string]func(items []BatchItem, v uint64) []BatchItem{
		"count": func(_ []BatchItem, v uint64) []BatchItem {
			return make([]BatchItem, max(1, min(v, 16384)))
		},
		"Kind": func(items []BatchItem, v uint64) []BatchItem {
			items[0].Kind = uint16(min(v, math.MaxUint16))
			return items
		},
		"len(Payload)": func(items []BatchItem, v uint64) []BatchItem {
			items[1].Payload = boundaryBytes(v)
			return items
		},
	}
	for name, set := range fields {
		for _, v := range varintBoundaries {
			items := set(batchOf(2), v)
			enc := appendBatchBody(nil, items)
			if batchBodySize(items) != len(enc) {
				t.Errorf("%s=%d: batchBodySize %d, encoded %d", name, v, batchBodySize(items), len(enc))
			}
			got, err := decodeBatchBody(nil, enc)
			if err != nil {
				t.Errorf("%s=%d: decode: %v", name, v, err)
				continue
			}
			if !bytes.Equal(appendBatchBody(nil, got), enc) {
				t.Errorf("%s=%d: re-encode differs", name, v)
			}
		}
	}
}

// TestEnvelopeDecodeRejectsNonCanonical pins the rule Verify depends on: a
// header whose varint is padded to a longer form must not decode, because
// it would otherwise verify under the MAC of the shorter, canonical header.
func TestEnvelopeDecodeRejectsNonCanonical(t *testing.T) {
	a, b := newPair(t)
	env := mustShield(t, a, "ab", 1, []byte("v"))
	enc := env.AppendTo(nil)
	// enc[1] is the view (0), a one-byte varint; 0x80 0x00 is 0 padded.
	padded := append([]byte{enc[0], 0x80, 0x00}, enc[2:]...)
	var e Envelope
	if err := DecodeEnvelopeInto(&e, padded); !errors.Is(err, codec.ErrNonCanonical) {
		t.Fatalf("padded view: err = %v, want ErrNonCanonical", err)
	}
	if err := DecodeEnvelopeInto(&e, enc); err != nil {
		t.Fatalf("canonical envelope: %v", err)
	}
	if _, _, err := b.Verify(e); err != nil {
		t.Fatalf("canonical envelope: Verify: %v", err)
	}
}
