package authn

import (
	"encoding/binary"
	"fmt"

	"recipe/internal/bufpool"
	"recipe/internal/codec"
)

// Envelope is the wire format of a shielded message: the sequence tuple
// (View, Channel, Seq), the replication-group domain, a protocol message
// kind, the (possibly encrypted) payload, and the MAC covering all of it.
//
// A batch envelope (Batch set) carries N messages under one header and one
// MAC: the payload is a batch body of N (kind, payload) items occupying the
// counter range [Seq, Seq+N-1]. Verify explodes it into N logical envelopes,
// so batching is invisible above this layer except in cost: one MAC and one
// enclave transition amortize over the whole flush.
type Envelope struct {
	View    uint64
	Epoch   uint64 // configuration epoch the sender produced the message under
	Channel string // cq: the communication-channel identifier
	Group   uint32 // replication group (shard) the channel belongs to
	Seq     uint64 // cnt_cq: per-channel counter (first of the range if Batch)
	Kind    uint16 // protocol message type, opaque to this layer
	Enc     bool   // payload is AES-GCM encrypted (confidential mode)
	Batch   bool   // payload is a batch body spanning counters Seq..Seq+N-1
	Payload []byte
	MAC     []byte
}

// flag bits of the envelope's tag byte.
const (
	flagEnc   byte = 1 << iota // payload is AES-GCM encrypted
	flagBatch                  // payload is a batch body (counter range)
)

// envTag fills the high bits of an envelope's first byte, above the flag
// bits: every envelope starts with a byte in 0xA0–0xA3. core.Wire starts
// with its flags byte (0–7) and a netstack multiframe packet with 0x52, so
// the first byte alone tells the three formats apart.
const envTag byte = 0xA0

func (e *Envelope) tag() byte {
	b := envTag
	if e.Enc {
		b |= flagEnc
	}
	if e.Batch {
		b |= flagBatch
	}
	return b
}

// maxHeaderSize bounds the authenticated header apart from the channel
// name: the tag byte and six varints (view, epoch, seq, kind, group, and
// the channel-name length). Channels size their header scratch with it.
const maxHeaderSize = 1 + 6*binary.MaxVarintLen64

// appendHeader serialises the authenticated header into buf:
//
//	tag view epoch seq kind group channel
//
// with every integer a canonical varint (internal/codec) and the channel
// name length-prefixed. The MAC covers exactly header||payload, so any
// header tampering — including flipping the batch flag or rewriting the
// group or epoch — invalidates the MAC. Verify recomputes the MAC over the
// header re-encoded from the parsed fields, which is sound only because the
// decoder is canonical: it rejects padded varints, so no second byte string
// parses to the same header. Covering the group binds every envelope to its
// shard's MAC domain: a valid shard-A envelope carried into shard B fails
// the receiver's group check, and an envelope whose group field was
// rewritten fails the MAC. Covering the epoch binds it to one
// configuration: traffic captured before a reconfiguration cannot be
// replayed after it (the receiver rejects the stale epoch, and an attacker
// cannot rewrite the field without breaking the MAC).
func (e *Envelope) appendHeader(buf []byte) []byte {
	buf = append(buf, e.tag())
	buf = codec.AppendUvarint(buf, e.View)
	buf = codec.AppendUvarint(buf, e.Epoch)
	buf = codec.AppendUvarint(buf, e.Seq)
	buf = codec.AppendUvarint(buf, uint64(e.Kind))
	buf = codec.AppendUvarint(buf, uint64(e.Group))
	return codec.AppendString(buf, e.Channel)
}

// EncodedSize returns the exact length of the encoded envelope, so callers
// can size a reused or pooled buffer before AppendTo.
func (e *Envelope) EncodedSize() int {
	return 1 + codec.UvarintSize(e.View) + codec.UvarintSize(e.Epoch) +
		codec.UvarintSize(e.Seq) + codec.UvarintSize(uint64(e.Kind)) +
		codec.UvarintSize(uint64(e.Group)) + codec.BytesSize(len(e.Channel)) +
		codec.BytesSize(len(e.Payload)) + codec.BytesSize(len(e.MAC))
}

// AppendTo serialises the envelope for transport — the header, then the
// length-prefixed payload and MAC — appending to buf and returning the
// extended slice. It is the allocation-free encoder of the hot path: with a
// reused buffer of sufficient capacity it performs no heap allocation.
func (e *Envelope) AppendTo(buf []byte) []byte {
	buf = e.appendHeader(buf)
	buf = codec.AppendBytes(buf, e.Payload)
	return codec.AppendBytes(buf, e.MAC)
}

// DecodeEnvelopeInto parses an envelope from wire bytes without copying:
// Payload and MAC alias data, so the caller must keep data alive and
// unmodified for as long as it uses the envelope (buffered out-of-order
// envelopes retain it until delivered). All length fields remain
// bounds-checked against the actual buffer, so hostile input cannot force
// large allocations or out-of-range reads, and non-minimal varints are
// rejected (see appendHeader).
func DecodeEnvelopeInto(e *Envelope, data []byte) error {
	r := codec.NewReader(data)
	tag := r.Byte()
	if tag&^(flagEnc|flagBatch) != envTag {
		return fmt.Errorf("decode envelope: bad tag %#x", tag)
	}
	e.Enc = tag&flagEnc != 0
	e.Batch = tag&flagBatch != 0
	r.Uvarints(&e.View, &e.Epoch, &e.Seq)
	e.Kind = r.Uint16()
	e.Group = r.Uint32()
	e.Channel = r.String()
	e.Payload = r.View()
	e.MAC = r.View()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("decode envelope: %w", err)
	}
	return nil
}

// BatchItem is one message inside a batch envelope.
type BatchItem struct {
	Kind    uint16
	Payload []byte
}

// minBatchItemLen is the smallest encoded BatchItem: a one-byte kind and a
// one-byte length.
const minBatchItemLen = 2

// batchBodySize returns the encoded size of a batch body, for pooled-buffer
// sizing.
func batchBodySize(items []BatchItem) int {
	size := codec.UvarintSize(uint64(len(items)))
	for i := range items {
		size += codec.UvarintSize(uint64(items[i].Kind)) + codec.BytesSize(len(items[i].Payload))
	}
	return size
}

// appendBatchBody serialises N items: [count]([kind][payload])... with
// varint counts, kinds and lengths.
func appendBatchBody(buf []byte, items []BatchItem) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(items)))
	for i := range items {
		buf = codec.AppendUvarint(buf, uint64(items[i].Kind))
		buf = codec.AppendBytes(buf, items[i].Payload)
	}
	return buf
}

// getBatchBody encodes a batch body into a pooled buffer; the caller owns the
// result and returns it via bufpool.Put (or hands it to the envelope, whose
// owner recycles it through RecyclePayload).
func getBatchBody(items []BatchItem) []byte {
	return appendBatchBody(bufpool.Get(batchBodySize(items)), items)
}

// decodeBatchBody parses a batch body, appending the items to dst (reusing
// its capacity). Item payloads alias data. The count is bounded by what the
// buffer could actually hold, so a corrupt count cannot force a large
// allocation.
func decodeBatchBody(dst []BatchItem, data []byte) ([]BatchItem, error) {
	r := codec.NewReader(data)
	n := r.Count(minBatchItemLen)
	if r.Err() == nil && n == 0 {
		return nil, fmt.Errorf("decode batch: empty batch")
	}
	for i := 0; i < n; i++ {
		var it BatchItem
		it.Kind = r.Uint16()
		it.Payload = r.View()
		dst = append(dst, it)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	return dst, nil
}
