package core

import (
	"bytes"
	"testing"

	"recipe/internal/authn"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
)

// TestWireFormatsDisjoint pins the first-byte rule that keeps the three
// packet formats a transport carries apart: a core.Wire starts with its
// flags byte (0–7), an authn envelope with its tag (0xA0–0xA3), and a
// netstack multiframe packet with 'R' (0x52). No encoded envelope may
// decode as a Wire, no Wire as an envelope, and neither may be taken for a
// multiframe packet. The shielded client's fallback to a bare epoch notice
// and the node's SplitFrames dispatch both rely on it.
func TestWireFormatsDisjoint(t *testing.T) {
	const multiframeFirstByte = 'R' // netstack's frame magic is "RCPB"
	cmd := Command{Op: OpPut, Key: "k", Value: []byte("v"), ClientID: "c", ClientAddr: "a", Seq: 1}
	wires := []*Wire{
		{},
		{Kind: KindEpochNotice, Term: 4, Value: []byte("signed map")},
		{Kind: KindClientReq, From: "c", Cmd: &cmd},
		{Kind: KindClientResp, OK: true, Res: &Result{OK: true, Version: kvstore.Version{TS: 1 << 40}}},
		{Kind: KindProtocolBase, Term: 1 << 20, Index: 1 << 33, Cmds: []Command{cmd, cmd},
			Value: bytes.Repeat([]byte{0x52}, 16)},
	}
	envs := []authn.Envelope{
		{},
		{View: 1, Channel: "ch:n1@1->n2@1", Seq: 1, Kind: KindClientReq, MAC: make([]byte, 32)},
		{Enc: true, Seq: 1 << 30, Payload: make([]byte, 44), MAC: make([]byte, 32)},
		{Batch: true, Epoch: 1 << 50, Group: 1 << 31, Payload: []byte{2, 1, 0, 1, 0}, MAC: make([]byte, 32)},
		{Enc: true, Batch: true, Kind: 0xFFFF, Channel: "RCPB"},
	}
	notMultiframe := func(what string, pkt []byte) {
		t.Helper()
		padded := append(append([]byte(nil), pkt...), make([]byte, 8)...)
		if _, multi, _ := netstack.SplitFrames(padded); multi {
			t.Errorf("%s taken for a multiframe packet", what)
		}
	}
	for i, w := range wires {
		pkt := w.Encode()
		var e authn.Envelope
		if err := authn.DecodeEnvelopeInto(&e, pkt); err == nil {
			t.Errorf("wire %d decoded as an envelope", i)
		}
		notMultiframe("wire", pkt)
	}
	for i := range envs {
		pkt := envs[i].AppendTo(nil)
		if _, err := DecodeWire(pkt); err == nil {
			t.Errorf("envelope %d decoded as a wire", i)
		}
		notMultiframe("envelope", pkt)
	}

	// Every first byte: swap it into a valid message of each format and
	// record which values still decode.
	wirePkt := wires[0].Encode()
	envPkt := envs[1].AppendTo(nil)
	for b := 0; b < 256; b++ {
		wirePkt[0], envPkt[0] = byte(b), byte(b)
		_, werr := DecodeWire(wirePkt)
		var e authn.Envelope
		eerr := authn.DecodeEnvelopeInto(&e, envPkt)
		if werr == nil && b > 7 {
			t.Errorf("wire decodes with first byte %#x, outside 0-7", b)
		}
		if eerr == nil && (b < 0xA0 || b > 0xA3) {
			t.Errorf("envelope decodes with first byte %#x, outside 0xA0-0xA3", b)
		}
		if b == multiframeFirstByte && (werr == nil || eerr == nil) {
			t.Errorf("a message decodes with the multiframe magic's first byte")
		}
	}
}
