package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"recipe/internal/codec"
	"recipe/internal/kvstore"
)

func wiresEqual(a, b *Wire) bool {
	if a.Kind != b.Kind || a.Group != b.Group || a.From != b.From || a.Term != b.Term ||
		a.Index != b.Index || a.Commit != b.Commit || a.TS != b.TS ||
		a.OK != b.OK || a.Key != b.Key || !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if (a.Cmd == nil) != (b.Cmd == nil) || (a.Res == nil) != (b.Res == nil) {
		return false
	}
	if a.Cmd != nil && !cmdEqual(*a.Cmd, *b.Cmd) {
		return false
	}
	if len(a.Cmds) != len(b.Cmds) {
		return false
	}
	for i := range a.Cmds {
		if !cmdEqual(a.Cmds[i], b.Cmds[i]) {
			return false
		}
	}
	if a.Res != nil {
		if a.Res.OK != b.Res.OK || a.Res.Err != b.Res.Err ||
			!bytes.Equal(a.Res.Value, b.Res.Value) || a.Res.Version != b.Res.Version {
			return false
		}
	}
	return true
}

func cmdEqual(a, b Command) bool {
	return a.Op == b.Op && a.Key == b.Key && bytes.Equal(a.Value, b.Value) &&
		a.ClientID == b.ClientID && a.ClientAddr == b.ClientAddr && a.Seq == b.Seq
}

func TestWireCodecRoundTrip(t *testing.T) {
	w := &Wire{
		Kind: 7, Group: 2, From: "n1", Term: 3, Index: 42, Commit: 40,
		TS: kvstore.Version{TS: 9, Writer: 2}, OK: true,
		Key: "k", Value: []byte("v"),
		Cmd: &Command{Op: OpPut, Key: "k", Value: []byte("v"), ClientID: "c", ClientAddr: "addr", Seq: 5},
		Cmds: []Command{
			{Op: OpGet, Key: "a", ClientID: "c1", Seq: 1},
			{Op: OpPut, Key: "b", Value: []byte("bb"), Seq: 2},
		},
		Res: &Result{OK: true, Value: []byte("rv"), Version: kvstore.Version{TS: 1}},
	}
	got, err := DecodeWire(w.Encode())
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if !wiresEqual(w, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, w)
	}
}

// TestWireEncodedSizeExact pins AppendTo's buffer sizing for the pooled
// encode path: EncodedSize must be the exact encoded length for every field
// combination, or pooled buffers would regrow on append.
func TestWireEncodedSizeExact(t *testing.T) {
	msgs := []*Wire{
		{},
		{Kind: 7, Group: 2, Epoch: 5, From: "n1", Term: 3, Index: 42, Commit: 40,
			TS: kvstore.Version{TS: 9, Writer: 2}, OK: true,
			Key: "k", Value: []byte("v"),
			Cmd: &Command{Op: OpPut, Key: "k", Value: []byte("v"), ClientID: "c", ClientAddr: "addr", Seq: 5},
			Cmds: []Command{
				{Op: OpGet, Key: "a", ClientID: "c1", Seq: 1},
				{Op: OpPut, Key: "b", Value: []byte("bb"), Seq: 2},
			},
			Res: &Result{OK: true, Err: "nope", Value: []byte("rv"), Version: kvstore.Version{TS: 1}}},
		{Kind: 1, Cmd: &Command{}},
		{Kind: 2, Res: &Result{}},
	}
	for i, w := range msgs {
		if got, want := len(w.Encode()), w.EncodedSize(); got != want {
			t.Errorf("msg %d: EncodedSize = %d, encoded length = %d", i, want, got)
		}
	}
}

func TestWireCodecEmptyMessage(t *testing.T) {
	w := &Wire{Kind: 1}
	got, err := DecodeWire(w.Encode())
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if !wiresEqual(w, got) {
		t.Errorf("empty message mismatch: %+v", got)
	}
}

func TestWireCodecProperty(t *testing.T) {
	f := func(kind uint16, group uint32, from string, term, index, commit, ts, writer uint64,
		ok bool, key string, value []byte, hasCmd bool, op byte, cseq uint64) bool {
		w := &Wire{
			Kind: kind, Group: group, From: from, Term: term, Index: index, Commit: commit,
			TS: kvstore.Version{TS: ts, Writer: writer}, OK: ok, Key: key, Value: value,
		}
		if hasCmd {
			w.Cmd = &Command{Op: Op(op), Key: key, Value: value, ClientID: from, Seq: cseq}
		}
		got, err := DecodeWire(w.Encode())
		return err == nil && wiresEqual(w, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestWireDecodeTruncatedNeverPanics(t *testing.T) {
	w := &Wire{
		Kind: 5, From: "n2", Key: "key", Value: []byte("value"),
		Cmd:  &Command{Op: OpPut, Key: "k", Value: []byte("v")},
		Cmds: []Command{{Op: OpGet, Key: "q"}},
		Res:  &Result{OK: true},
	}
	wire := w.Encode()
	for n := 0; n < len(wire); n++ {
		if _, err := DecodeWire(wire[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestWireDecodeGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		{0xff},
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{0x00}, 11),
	} {
		if _, err := DecodeWire(data); err == nil && len(data) < 47 {
			t.Errorf("garbage %v decoded", data)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpPut.String() != "PUT" || OpGet.String() != "GET" {
		t.Errorf("Op strings: %s %s", OpPut, OpGet)
	}
	if Op(99).String() == "" {
		t.Errorf("unknown op has empty string")
	}
}

func TestStatePageCodec(t *testing.T) {
	entries := []stateEntry{
		{Key: "a", Value: []byte("1"), Version: kvstore.Version{TS: 1, Writer: 2}},
		{Key: "b", Value: nil, Version: kvstore.Version{TS: 5}},
	}
	data := encodeStatePage(entries, "c", false, nil)
	got, next, done, sidecar, err := decodeStatePage(data)
	if err != nil {
		t.Fatalf("decodeStatePage: %v", err)
	}
	if next != "c" || done || len(sidecar) != 0 {
		t.Errorf("next=%q done=%v sidecar=%d", next, done, len(sidecar))
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Version.TS != 5 {
		t.Errorf("entries = %+v", got)
	}
	// Terminal page with a protocol sidecar.
	data = encodeStatePage(nil, "", true, []byte("tombstones"))
	got, _, done, sidecar, err = decodeStatePage(data)
	if err != nil || !done || len(got) != 0 || string(sidecar) != "tombstones" {
		t.Errorf("terminal page: %+v done=%v sidecar=%q err=%v", got, done, sidecar, err)
	}
}

func TestChannelSenderParsing(t *testing.T) {
	for _, tc := range []struct {
		cq     string
		want   string
		wantOK bool
	}{
		{"ch:n1@1->n2@1", "n1", true},
		{"ch:n1@12->n2@3", "n1", true},
		{"cli:client-7->n2", "client-7", true},
		{"cli:n2->client-7", "n2", true},
		{"bogus:n1->n2", "", false},
		{"ch:garbage", "", false},
	} {
		got, ok := channelSender(tc.cq)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("channelSender(%q) = %q,%v; want %q,%v", tc.cq, got, ok, tc.want, tc.wantOK)
		}
	}
}

// varintBoundaries are the values where a varint's length changes, plus
// the extremes.
var varintBoundaries = []uint64{0, 127, 128, 16383, 16384, math.MaxUint64}

// TestWireEncodedSizeAtVarintBoundaries checks EncodedSize against the
// encoding, and the encoding against a decode/re-encode round trip, with
// every integer field and every length prefix of the message at each
// varint boundary. Narrow fields are clamped to their width.
func TestWireEncodedSizeAtVarintBoundaries(t *testing.T) {
	base := func() *Wire {
		return &Wire{
			Cmd:  &Command{Op: OpPut},
			Cmds: []Command{{Op: OpGet}},
			Res:  &Result{},
		}
	}
	str := func(v uint64) string { return strings.Repeat("s", int(min(v, 16384))) }
	fields := map[string]func(w *Wire, v uint64){
		"Kind":           func(w *Wire, v uint64) { w.Kind = uint16(min(v, math.MaxUint16)) },
		"Group":          func(w *Wire, v uint64) { w.Group = uint32(min(v, math.MaxUint32)) },
		"Epoch":          func(w *Wire, v uint64) { w.Epoch = v },
		"Term":           func(w *Wire, v uint64) { w.Term = v },
		"Index":          func(w *Wire, v uint64) { w.Index = v },
		"Commit":         func(w *Wire, v uint64) { w.Commit = v },
		"TS.TS":          func(w *Wire, v uint64) { w.TS.TS = v },
		"TS.Writer":      func(w *Wire, v uint64) { w.TS.Writer = v },
		"len(From)":      func(w *Wire, v uint64) { w.From = str(v) },
		"len(Key)":       func(w *Wire, v uint64) { w.Key = str(v) },
		"len(Value)":     func(w *Wire, v uint64) { w.Value = []byte(str(v)) },
		"Cmd.Seq":        func(w *Wire, v uint64) { w.Cmd.Seq = v },
		"len(Cmd.Key)":   func(w *Wire, v uint64) { w.Cmd.Key = str(v) },
		"len(Cmd.Value)": func(w *Wire, v uint64) { w.Cmd.Value = []byte(str(v)) },
		"len(ClientID)":  func(w *Wire, v uint64) { w.Cmd.ClientID = str(v) },
		"len(Addr)":      func(w *Wire, v uint64) { w.Cmd.ClientAddr = str(v) },
		"Cmds[0].Seq":    func(w *Wire, v uint64) { w.Cmds[0].Seq = v },
		"len(Cmds)":      func(w *Wire, v uint64) { w.Cmds = make([]Command, min(v, 16384)) },
		"Res.Version.TS": func(w *Wire, v uint64) { w.Res.Version.TS = v },
		"Res.Writer":     func(w *Wire, v uint64) { w.Res.Version.Writer = v },
		"len(Res.Err)":   func(w *Wire, v uint64) { w.Res.Err = str(v) },
		"len(Res.Value)": func(w *Wire, v uint64) { w.Res.Value = []byte(str(v)) },
	}
	for name, set := range fields {
		for _, v := range varintBoundaries {
			w := base()
			set(w, v)
			enc := w.AppendTo(nil)
			if w.EncodedSize() != len(enc) {
				t.Errorf("%s=%d: EncodedSize %d, encoded %d", name, v, w.EncodedSize(), len(enc))
			}
			got, err := DecodeWire(enc)
			if err != nil {
				t.Errorf("%s=%d: decode: %v", name, v, err)
				continue
			}
			if !bytes.Equal(got.Encode(), enc) {
				t.Errorf("%s=%d: re-encode differs", name, v)
			}
		}
	}
}

// TestWireDecodeRejectsNonCanonical pins the canonical rule on a real
// message: padding any one-byte varint to two bytes must fail to decode,
// since it would otherwise re-encode to different bytes.
func TestWireDecodeRejectsNonCanonical(t *testing.T) {
	enc := (&Wire{Kind: KindClientReq, Term: 3}).Encode()
	// enc[1] is the kind, a one-byte varint; 0x81 0x00 is the same value
	// padded.
	padded := append([]byte{enc[0], enc[1] | 0x80, 0x00}, enc[2:]...)
	if _, err := DecodeWire(padded); !errors.Is(err, codec.ErrNonCanonical) {
		t.Errorf("padded kind: err = %v, want ErrNonCanonical", err)
	}
}
