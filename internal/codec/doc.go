// Package codec is the one canonical-varint encoder and bounds-checked reader
// behind the hot-path wire formats: core.Wire (with its Command and Result
// sections), core's state-transfer pages, the authn envelope header and batch
// body, and Raft's per-entry terms blob.
//
// Every integer is an unsigned LEB128 varint (encoding/binary's Uvarint
// format), so the small kinds, groups, views, counters and lengths that make
// up almost every message cost one byte each instead of a fixed 2–8. Strings
// and byte slices are a varint length followed by the bytes.
//
// # Canonical decoding
//
// Decoding is canonical: the Reader rejects a varint that is not in its
// minimal form (a multi-byte encoding whose last byte is zero), a narrow
// field whose value does not fit its width, and a boolean byte other than 0
// or 1. Every byte string therefore decodes to at most one value and every
// value re-encodes to exactly the bytes it came from. authn relies on this:
// Verify MACs the re-encoded header, so a reader that accepted a padded
// varint would let two different byte strings verify as one header.
//
// # Bounds
//
// Lengths are capped at 64 MiB and checked against the remaining input
// before any slice is taken; counts are capped at 2^20 and at how many
// minimum-size items the remaining bytes could hold, so a tiny hostile
// packet cannot force a large allocation. After the first failure every
// read returns a zero value and Err reports the cause, so decoders read a
// whole structure and check once.
//
// # Cost
//
// A single-byte varint — the common case — is decoded on a fast path; the
// general loop runs only for values of 128 and above. The Reader's methods
// are too large for the compiler to inline, so each read is a call; a
// decoder reads a run of consecutive integers with one Uvarints call.
package codec
