package core

import (
	"errors"
	"testing"

	"recipe/internal/codec"
	"recipe/internal/kvstore"
)

// fuzzSeeds covers every flag/field combination of the wire format: bare
// messages, each optional section alone, and all of them together.
func fuzzSeeds() [][]byte {
	cmd := Command{Op: OpPut, Key: "k", Value: []byte("v"), ClientID: "c", ClientAddr: "addr", Seq: 9}
	res := Result{OK: true, Err: "e", Value: []byte("rv"), Version: kvstore.Version{TS: 3, Writer: 1}}
	wires := []*Wire{
		{},
		{Kind: KindClientReq, Cmd: &cmd},
		{Kind: KindClientResp, Index: 4, Res: &res},
		{Kind: KindRedirect, Key: "n2"},
		{Kind: KindStateResp, OK: true, Value: []byte("page")},
		{Kind: KindProtocolBase, From: "n1", Term: 2, Index: 10, Commit: 8,
			TS: kvstore.Version{TS: 7, Writer: 2}, OK: true,
			Cmds: []Command{cmd, {Op: OpGet, Key: "q"}}},
		{Kind: KindProtocolBase + 1, From: "n3", Key: "k", Value: []byte("vv"),
			Cmd: &cmd, Cmds: []Command{cmd}, Res: &res},
	}
	seeds := make([][]byte, 0, len(wires)+1)
	for _, w := range wires {
		seeds = append(seeds, w.Encode())
	}
	// The prealloc bug: a tiny packet whose Cmds count claims 1<<20 entries
	// used to allocate ~90 MB before failing to decode.
	seeds = append(seeds, hostileCmdCount(1<<20))
	return seeds
}

func FuzzDecodeWire(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		if err != nil {
			return
		}
		// The codec is canonical: a successfully decoded message re-encodes
		// to the exact input bytes.
		enc := w.Encode()
		if string(enc) != string(data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, enc)
		}
	})
}

// hostileCmdCount encodes an empty Wire whose Cmds count claims n entries
// with no bytes behind it. The empty Wire ends in its one-byte zero count,
// which is swapped for the varint n.
func hostileCmdCount(n uint64) []byte {
	pkt := (&Wire{}).Encode()
	return codec.AppendUvarint(pkt[:len(pkt)-1], n)
}

// TestDecodeWireHostileCmdCount is the non-fuzz regression for the bounded
// preallocation: the hostile count must be rejected by the count bound —
// not by a parse error elsewhere — without allocating for it.
func TestDecodeWireHostileCmdCount(t *testing.T) {
	for _, n := range []uint64{2, 1 << 20, 1 << 21, 1<<64 - 1} {
		pkt := hostileCmdCount(n)
		if _, err := DecodeWire(pkt); !errors.Is(err, codec.ErrOversized) {
			t.Errorf("count %d: err = %v, want the count bound (ErrOversized)", n, err)
		}
		// A handful of small allocations (error wrapping) are fine; a
		// ~90 MB slice is not.
		if allocs := testing.AllocsPerRun(10, func() { DecodeWire(pkt) }); allocs > 16 {
			t.Errorf("count %d: hostile decode made %v allocations", n, allocs)
		}
	}
	// The same packet with the count it can hold decodes.
	if _, err := DecodeWire(hostileCmdCount(0)); err != nil {
		t.Errorf("zero count: %v", err)
	}
}

// TestDecodeStatePageHostileCount mirrors the same bound for state pages:
// the entry count leads the page.
func TestDecodeStatePageHostileCount(t *testing.T) {
	tail := encodeStatePage(nil, "", true, nil)[1:] // drop the zero count
	for _, n := range []uint64{1, 1 << 20, 1 << 21} {
		pkt := append(codec.AppendUvarint(nil, n), tail...)
		if _, _, _, _, err := decodeStatePage(pkt); !errors.Is(err, codec.ErrOversized) {
			t.Errorf("count %d: err = %v, want the count bound (ErrOversized)", n, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { decodeStatePage(pkt) }); allocs > 16 {
			t.Errorf("count %d: hostile decode made %v allocations", n, allocs)
		}
	}
}
