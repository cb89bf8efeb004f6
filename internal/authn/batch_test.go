package authn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"recipe/internal/codec"
)

func batchOf(n int) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Kind: uint16(100 + i), Payload: []byte(fmt.Sprintf("msg-%d", i))}
	}
	return items
}

func TestShieldBatchRoundTrip(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(5))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	if !env.Batch || env.Seq != 1 {
		t.Fatalf("envelope = %+v; want Batch at Seq 1", env)
	}
	// Cross the wire: the batch flag must survive the codec.
	wire := env.AppendTo(nil)
	env = Envelope{}
	if err := DecodeEnvelopeInto(&env, wire); err != nil || !env.Batch {
		t.Fatalf("codec round trip: %v, batch=%v", err, env.Batch)
	}
	st, got, err := b.Verify(env)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if st != Delivered || len(got) != 5 {
		t.Fatalf("status %v, %d msgs; want Delivered, 5", st, len(got))
	}
	for i, d := range got {
		if d.Kind != uint16(100+i) || !bytes.Equal(d.Payload, []byte(fmt.Sprintf("msg-%d", i))) {
			t.Errorf("msg %d = kind %d payload %q", i, d.Kind, d.Payload)
		}
		if d.Seq != uint64(i+1) {
			t.Errorf("msg %d seq = %d, want %d", i, d.Seq, i+1)
		}
	}
	if b.LastDelivered("ab") != 5 {
		t.Errorf("rcnt = %d, want 5", b.LastDelivered("ab"))
	}
}

func TestShieldBatchCountersContinueAcrossModes(t *testing.T) {
	a, b := newPair(t)
	// single, batch of 3, single: counters 1, 2-4, 5.
	envs := []Envelope{mustShield(t, a, "ab", 1, []byte("first"))}
	be, err := a.ShieldBatch("ab", batchOf(3))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	envs = append(envs, be, mustShield(t, a, "ab", 2, []byte("last")))
	total := 0
	for _, env := range envs {
		st, got, err := b.Verify(env)
		if err != nil || st != Delivered {
			t.Fatalf("Verify: %v (status %v)", err, st)
		}
		total += len(got)
	}
	if total != 5 || b.LastDelivered("ab") != 5 {
		t.Errorf("delivered %d msgs, rcnt %d; want 5, 5", total, b.LastDelivered("ab"))
	}
}

func TestShieldBatchSingleItemDegradesToPlain(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(1))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	if env.Batch {
		t.Errorf("one-item batch should be a plain envelope")
	}
	if _, got, err := b.Verify(env); err != nil || len(got) != 1 {
		t.Errorf("Verify: %v, %d msgs", err, len(got))
	}
}

func TestShieldBatchEmptyRejected(t *testing.T) {
	a, _ := newPair(t)
	if _, err := a.ShieldBatch("ab", nil); err == nil {
		t.Errorf("empty batch accepted")
	}
}

func TestBatchReplayRejected(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(4))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	if _, _, err := b.Verify(env); err != nil {
		t.Fatalf("first Verify: %v", err)
	}
	if _, _, err := b.Verify(env); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed batch err = %v, want ErrReplay", err)
	}
}

func TestBatchTamperRejected(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(4))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	tampered := env
	tampered.Payload = append([]byte(nil), env.Payload...)
	tampered.Payload[5] ^= 0xff
	if _, _, err := b.Verify(tampered); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered batch err = %v, want ErrBadMAC", err)
	}
	// Flipping the batch flag alone must also invalidate the MAC.
	flipped := env
	flipped.Batch = false
	if _, _, err := b.Verify(flipped); !errors.Is(err, ErrBadMAC) {
		t.Errorf("flag-flipped batch err = %v, want ErrBadMAC", err)
	}
}

func TestBatchOutOfOrderBuffersAndDrains(t *testing.T) {
	a, b := newPair(t)
	first, err := a.ShieldBatch("ab", batchOf(2)) // seqs 1-2
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	second, err := a.ShieldBatch("ab", batchOf(3)) // seqs 3-5
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	st, got, err := b.Verify(second)
	if err != nil || st != Buffered || len(got) != 0 {
		t.Fatalf("future batch: status %v, %d msgs, err %v; want Buffered", st, len(got), err)
	}
	st, got, err = b.Verify(first)
	if err != nil || st != Delivered {
		t.Fatalf("gap close: %v (status %v)", err, st)
	}
	if len(got) != 5 {
		t.Errorf("gap close delivered %d msgs, want 5 (batch + drained futures)", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Errorf("msg %d seq = %d, want %d", i, d.Seq, i+1)
		}
	}
}

func TestBatchPartialRedelivery(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(4)) // seqs 1-4
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	if _, _, err := b.Verify(env); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A fresh batch overlapping nothing delivers normally afterwards.
	next, err := a.ShieldBatch("ab", batchOf(2)) // seqs 5-6
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	st, got, err := b.Verify(next)
	if err != nil || st != Delivered || len(got) != 2 {
		t.Errorf("followup batch: status %v, %d msgs, err %v", st, len(got), err)
	}
}

func TestBatchConfidentialRoundTrip(t *testing.T) {
	a, b := newPair(t, WithConfidentiality())
	env, err := a.ShieldBatch("ab", batchOf(6))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	if !env.Enc {
		t.Fatalf("confidential batch not encrypted")
	}
	if bytes.Contains(env.Payload, []byte("msg-3")) {
		t.Fatalf("confidential batch leaks plaintext")
	}
	st, got, err := b.Verify(env)
	if err != nil || st != Delivered || len(got) != 6 {
		t.Fatalf("Verify: status %v, %d msgs, err %v", st, len(got), err)
	}
	if !bytes.Equal(got[3].Payload, []byte("msg-3")) {
		t.Errorf("decrypted payload = %q", got[3].Payload)
	}
}

func TestBatchWrongViewRejected(t *testing.T) {
	a, b := newPair(t)
	env, err := a.ShieldBatch("ab", batchOf(2))
	if err != nil {
		t.Fatalf("ShieldBatch: %v", err)
	}
	b.SetView(3)
	if _, _, err := b.Verify(env); !errors.Is(err, ErrWrongView) {
		t.Errorf("wrong-view batch err = %v, want ErrWrongView", err)
	}
}

func TestBatchOnLooseChannel(t *testing.T) {
	a, b := newPair(t)
	key := bytes.Repeat([]byte{9}, 32)
	if err := a.OpenChannel("loose", key); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenLooseChannel("loose", key); err != nil {
		t.Fatal(err)
	}
	// Drop the first batch (seqs 1-2); the second (3-5) must still deliver.
	if _, err := a.ShieldBatch("loose", batchOf(2)); err != nil {
		t.Fatal(err)
	}
	env, err := a.ShieldBatch("loose", batchOf(3))
	if err != nil {
		t.Fatal(err)
	}
	st, got, err := b.Verify(env)
	if err != nil || st != Delivered || len(got) != 3 {
		t.Fatalf("loose batch after gap: status %v, %d msgs, err %v", st, len(got), err)
	}
	if b.LastDelivered("loose") != 5 {
		t.Errorf("rcnt = %d, want 5", b.LastDelivered("loose"))
	}
}

func TestBatchBodyCodecBounds(t *testing.T) {
	// A tiny body claiming more items than its bytes could hold must be
	// rejected by the count bound — not by a later truncation — before
	// anything is allocated for the items.
	for _, n := range []uint64{2, 127, 1 << 20, 1 << 40} {
		body := append(codec.AppendUvarint(nil, n), 1, 0) // room for one item
		if _, err := decodeBatchBody(nil, body); !errors.Is(err, codec.ErrOversized) {
			t.Errorf("count %d: err = %v, want the count bound (ErrOversized)", n, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { decodeBatchBody(nil, body) }); allocs > 4 {
			t.Errorf("count %d: hostile decode made %v allocations", n, allocs)
		}
	}
	items := batchOf(3)
	enc := appendBatchBody(nil, items)
	for n := 0; n < len(enc); n++ {
		if _, err := decodeBatchBody(nil, enc[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	got, err := decodeBatchBody(nil, enc)
	if err != nil || len(got) != 3 || got[2].Kind != 102 {
		t.Errorf("round trip: %v, %+v", err, got)
	}
}
