package authn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"recipe/internal/tee"
)

func newPair(t *testing.T, opts ...Option) (*Shielder, *Shielder) {
	t.Helper()
	p, err := tee.NewPlatform("test", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	a := NewShielder(p.NewEnclave([]byte("code")), opts...)
	b := NewShielder(p.NewEnclave([]byte("code")), opts...)
	key := bytes.Repeat([]byte{7}, 32)
	for _, s := range []*Shielder{a, b} {
		if err := s.OpenChannel("ab", key); err != nil {
			t.Fatalf("OpenChannel: %v", err)
		}
	}
	return a, b
}

func mustShield(t *testing.T, s *Shielder, cq string, kind uint16, payload []byte) Envelope {
	t.Helper()
	env, err := s.Shield(cq, kind, payload)
	if err != nil {
		t.Fatalf("Shield: %v", err)
	}
	return env
}

func TestShieldVerifyRoundTrip(t *testing.T) {
	a, b := newPair(t)
	env := mustShield(t, a, "ab", 3, []byte("put k v"))
	st, got, err := b.Verify(env)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if st != Delivered || len(got) != 1 {
		t.Fatalf("status %v, %d msgs; want Delivered, 1", st, len(got))
	}
	if !bytes.Equal(got[0].Payload, []byte("put k v")) || got[0].Kind != 3 {
		t.Errorf("delivered = %+v", got[0])
	}
}

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	e := Envelope{View: 9, Channel: "n1->n2", Seq: 42, Kind: 7, Enc: true,
		Payload: []byte{1, 2, 3}, MAC: bytes.Repeat([]byte{9}, 32)}
	var got Envelope
	if err := DecodeEnvelopeInto(&got, e.AppendTo(nil)); err != nil {
		t.Fatalf("DecodeEnvelopeInto: %v", err)
	}
	if got.View != e.View || got.Channel != e.Channel || got.Seq != e.Seq ||
		got.Kind != e.Kind || got.Enc != e.Enc ||
		!bytes.Equal(got.Payload, e.Payload) || !bytes.Equal(got.MAC, e.MAC) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, e)
	}
}

func TestEnvelopeCodecProperty(t *testing.T) {
	f := func(view, seq uint64, kind uint16, channel string, payload, mac []byte, enc bool) bool {
		e := Envelope{View: view, Channel: channel, Seq: seq, Kind: kind,
			Enc: enc, Payload: payload, MAC: mac}
		var got Envelope
		err := DecodeEnvelopeInto(&got, e.AppendTo(nil))
		return err == nil && got.View == view && got.Seq == seq &&
			got.Kind == kind && got.Channel == channel && got.Enc == enc &&
			bytes.Equal(got.Payload, payload) && bytes.Equal(got.MAC, mac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncatedNeverPanics(t *testing.T) {
	e := Envelope{View: 1, Channel: "c", Seq: 1, Kind: 1, Payload: []byte("xyz"), MAC: make([]byte, 32)}
	wire := e.AppendTo(nil)
	for n := 0; n < len(wire); n++ {
		var got Envelope
		if err := DecodeEnvelopeInto(&got, wire[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	a, b := newPair(t)
	env := mustShield(t, a, "ab", 1, []byte("value=100"))
	env.Payload[0] ^= 0xff
	if _, _, err := b.Verify(env); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered payload err = %v, want ErrBadMAC", err)
	}
}

func TestTamperedHeaderRejected(t *testing.T) {
	a, b := newPair(t)
	for name, mutate := range map[string]func(*Envelope){
		"seq":  func(e *Envelope) { e.Seq += 5 },
		"view": func(e *Envelope) { e.View++ },
		"kind": func(e *Envelope) { e.Kind++ },
	} {
		env := mustShield(t, a, "ab", 1, []byte("v"))
		mutate(&env)
		if _, _, err := b.Verify(env); !errors.Is(err, ErrBadMAC) {
			t.Errorf("tampered %s err = %v, want ErrBadMAC", name, err)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	a, b := newPair(t)
	env := mustShield(t, a, "ab", 1, []byte("v"))
	if _, _, err := b.Verify(env); err != nil {
		t.Fatalf("first verify: %v", err)
	}
	if _, _, err := b.Verify(env); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v, want ErrReplay", err)
	}
}

func TestWrongViewRejected(t *testing.T) {
	a, b := newPair(t)
	a.SetView(3)
	env := mustShield(t, a, "ab", 1, []byte("v"))
	if _, _, err := b.Verify(env); !errors.Is(err, ErrWrongView) {
		t.Errorf("wrong view err = %v, want ErrWrongView", err)
	}
}

func TestFutureMessagesBufferedAndDrained(t *testing.T) {
	a, b := newPair(t)
	e1 := mustShield(t, a, "ab", 1, []byte("m1"))
	e2 := mustShield(t, a, "ab", 1, []byte("m2"))
	e3 := mustShield(t, a, "ab", 1, []byte("m3"))

	st, _, err := b.Verify(e3)
	if err != nil || st != Buffered {
		t.Fatalf("future m3: status %v err %v, want Buffered", st, err)
	}
	st, _, err = b.Verify(e2)
	if err != nil || st != Buffered {
		t.Fatalf("future m2: status %v err %v, want Buffered", st, err)
	}
	if n := b.PendingFuture("ab"); n != 2 {
		t.Errorf("PendingFuture = %d, want 2", n)
	}
	st, got, err := b.Verify(e1)
	if err != nil || st != Delivered {
		t.Fatalf("m1: status %v err %v", st, err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(got))
	}
	for i, want := range []string{"m1", "m2", "m3"} {
		if string(got[i].Payload) != want {
			t.Errorf("delivered[%d] = %q, want %q", i, got[i].Payload, want)
		}
	}
	if n := b.PendingFuture("ab"); n != 0 {
		t.Errorf("PendingFuture after drain = %d, want 0", n)
	}
	if b.LastDelivered("ab") != 3 {
		t.Errorf("LastDelivered = %d, want 3", b.LastDelivered("ab"))
	}
}

func TestMonotonicityProperty(t *testing.T) {
	// Paper §4.1: for any two messages on one channel, later send => larger cnt.
	a, _ := newPair(t)
	var prev uint64
	for i := 0; i < 200; i++ {
		env := mustShield(t, a, "ab", 1, nil)
		if env.Seq <= prev {
			t.Fatalf("cnt not monotonic: %d after %d", env.Seq, prev)
		}
		prev = env.Seq
	}
}

func TestConfidentialityHidesPayload(t *testing.T) {
	a, b := newPair(t, WithConfidentiality())
	secret := []byte("patient record: positive")
	env := mustShield(t, a, "ab", 1, secret)
	if bytes.Contains(env.AppendTo(nil), secret) {
		t.Errorf("confidential envelope leaks plaintext")
	}
	st, got, err := b.Verify(env)
	if err != nil || st != Delivered {
		t.Fatalf("Verify: status %v err %v", st, err)
	}
	if !bytes.Equal(got[0].Payload, secret) {
		t.Errorf("decrypted = %q, want %q", got[0].Payload, secret)
	}
}

func TestConfidentialTamperRejected(t *testing.T) {
	a, b := newPair(t, WithConfidentiality())
	env := mustShield(t, a, "ab", 1, []byte("secret"))
	env.Payload[len(env.Payload)-1] ^= 1
	if _, _, err := b.Verify(env); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered ciphertext err = %v, want ErrBadMAC", err)
	}
}

func TestUnknownChannelRejected(t *testing.T) {
	a, b := newPair(t)
	if _, err := a.Shield("nope", 1, nil); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("Shield unknown channel err = %v", err)
	}
	env := mustShield(t, a, "ab", 1, nil)
	env.Channel = "nope"
	if _, _, err := b.Verify(env); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("Verify unknown channel err = %v", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	a, b := newPair(t)
	// Re-key only the receiver: sender's MACs must no longer verify.
	if err := b.OpenChannel("ab", bytes.Repeat([]byte{8}, 32)); err != nil {
		t.Fatalf("OpenChannel: %v", err)
	}
	env := mustShield(t, a, "ab", 1, []byte("v"))
	if _, _, err := b.Verify(env); !errors.Is(err, ErrBadMAC) {
		t.Errorf("wrong key err = %v, want ErrBadMAC", err)
	}
}

func TestSetViewResetsCounters(t *testing.T) {
	a, b := newPair(t)
	for i := 0; i < 5; i++ {
		env := mustShield(t, a, "ab", 1, nil)
		if _, _, err := b.Verify(env); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	a.SetView(1)
	b.SetView(1)
	env := mustShield(t, a, "ab", 1, []byte("new view"))
	if env.Seq != 1 {
		t.Errorf("seq after view change = %d, want 1", env.Seq)
	}
	st, _, err := b.Verify(env)
	if err != nil || st != Delivered {
		t.Errorf("verify in new view: status %v err %v", st, err)
	}
}

func TestFutureBufferOverflow(t *testing.T) {
	a, b := newPair(t)
	mustShield(t, a, "ab", 1, nil) // seq 1, never delivered to b
	for i := 0; i < maxFutureBuffer; i++ {
		env := mustShield(t, a, "ab", 1, nil)
		if _, _, err := b.Verify(env); err != nil {
			t.Fatalf("buffering %d: %v", i, err)
		}
	}
	env := mustShield(t, a, "ab", 1, nil)
	if _, _, err := b.Verify(env); !errors.Is(err, ErrFutureOverflow) {
		t.Errorf("overflow err = %v, want ErrFutureOverflow", err)
	}
}

func TestCrashedEnclaveRefuses(t *testing.T) {
	p, err := tee.NewPlatform("t", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e := p.NewEnclave([]byte("c"))
	s := NewShielder(e)
	if err := s.OpenChannel("x", make([]byte, 32)); err != nil {
		t.Fatalf("OpenChannel: %v", err)
	}
	e.Crash()
	if _, err := s.Shield("x", 1, nil); !errors.Is(err, tee.ErrEnclaveCrashed) {
		t.Errorf("Shield after crash err = %v", err)
	}
	if _, _, err := s.Verify(Envelope{Channel: "x"}); !errors.Is(err, tee.ErrEnclaveCrashed) {
		t.Errorf("Verify after crash err = %v", err)
	}
}

func TestPerChannelIndependence(t *testing.T) {
	a, b := newPair(t)
	key := bytes.Repeat([]byte{9}, 32)
	for _, s := range []*Shielder{a, b} {
		if err := s.OpenChannel("cd", key); err != nil {
			t.Fatalf("OpenChannel: %v", err)
		}
	}
	// Interleave two channels; counters must not interfere.
	for i := 0; i < 10; i++ {
		for _, cq := range []string{"ab", "cd"} {
			env := mustShield(t, a, cq, 1, []byte(fmt.Sprintf("%s-%d", cq, i)))
			if env.Seq != uint64(i+1) {
				t.Fatalf("channel %s seq = %d, want %d", cq, env.Seq, i+1)
			}
			if _, _, err := b.Verify(env); err != nil {
				t.Fatalf("verify %s %d: %v", cq, i, err)
			}
		}
	}
}
