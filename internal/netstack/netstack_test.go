package netstack

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func register(t *testing.T, f *Fabric, addr string) *Endpoint {
	t.Helper()
	ep, err := f.Register(addr)
	if err != nil {
		t.Fatalf("Register(%s): %v", addr, err)
	}
	return ep
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric()
	a := register(t, f, "a")
	b := register(t, f, "b")
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pkt := <-b.Inbox()
	if pkt.From != "a" || pkt.To != "b" || string(pkt.Data) != "hello" {
		t.Errorf("got %+v", pkt)
	}
	delivered, dropped, n := f.Stats()
	if delivered != 1 || dropped != 0 || n != 5 {
		t.Errorf("stats = %d/%d/%d", delivered, dropped, n)
	}
}

func TestFabricUnknownDestinationDrops(t *testing.T) {
	f := NewFabric()
	a := register(t, f, "a")
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("Send to unknown should not error (lossy): %v", err)
	}
	if _, dropped, _ := f.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestFabricDuplicateAddr(t *testing.T) {
	f := NewFabric()
	register(t, f, "a")
	if _, err := f.Register("a"); err == nil {
		t.Errorf("duplicate registration succeeded")
	}
}

func TestEndpointClose(t *testing.T) {
	f := NewFabric()
	a := register(t, f, "a")
	b := register(t, f, "b")
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send after peer close: %v", err)
	}
	if _, ok := <-b.Inbox(); ok {
		t.Errorf("inbox not closed")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close a: %v", err)
	}
	if err := a.Send("b", nil); err != ErrClosed {
		t.Errorf("send on closed endpoint err = %v, want ErrClosed", err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	f := NewFabric()
	a := register(t, f, "a")
	b := register(t, f, "b")
	buf := []byte("mutate-me")
	if err := a.Send("b", buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf[0] = 'X'
	pkt := <-b.Inbox()
	if string(pkt.Data) != "mutate-me" {
		t.Errorf("delivered data affected by caller mutation: %q", pkt.Data)
	}
}

func TestByzantineDrop(t *testing.T) {
	inj := NewByzantineNet(FaultConfig{Seed: 1, DropRate: 1.0})
	f := NewFabric(WithInjector(inj))
	a := register(t, f, "a")
	b := register(t, f, "b")
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case pkt := <-b.Inbox():
		t.Errorf("packet delivered through 100%% drop: %+v", pkt)
	default:
	}
	if inj.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", inj.Dropped)
	}
}

func TestByzantineDuplicate(t *testing.T) {
	inj := NewByzantineNet(FaultConfig{Seed: 1, DupRate: 1.0})
	f := NewFabric(WithInjector(inj))
	a := register(t, f, "a")
	b := register(t, f, "b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-b.Inbox():
		case <-time.After(time.Second):
			t.Fatalf("missing duplicate %d", i)
		}
	}
}

func TestByzantineTamper(t *testing.T) {
	inj := NewByzantineNet(FaultConfig{Seed: 1, TamperRate: 1.0})
	f := NewFabric(WithInjector(inj))
	a := register(t, f, "a")
	b := register(t, f, "b")
	orig := []byte("payload")
	if err := a.Send("b", orig); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pkt := <-b.Inbox()
	if bytes.Equal(pkt.Data, orig) {
		t.Errorf("payload not tampered")
	}
	if len(pkt.Data) != len(orig) {
		t.Errorf("tamper changed length")
	}
}

func TestByzantineReplay(t *testing.T) {
	inj := NewByzantineNet(FaultConfig{Seed: 3, ReplayRate: 1.0})
	f := NewFabric(WithInjector(inj))
	a := register(t, f, "a")
	b := register(t, f, "b")
	if err := a.Send("b", []byte("m1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send("b", []byte("m2")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// m1 delivered (+replays); every send after the first also replays.
	got := 0
	for {
		select {
		case <-b.Inbox():
			got++
		default:
			if got <= 2 {
				t.Errorf("no replayed packets observed (got %d)", got)
			}
			if inj.Replayed == 0 {
				t.Errorf("Replayed counter = 0")
			}
			return
		}
	}
}

func TestPartition(t *testing.T) {
	part := NewPartition("a")
	f := NewFabric(WithInjector(part))
	a := register(t, f, "a")
	b := register(t, f, "b")

	part.Activate()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-b.Inbox():
		t.Fatalf("packet crossed active partition")
	default:
	}
	part.Heal()
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pkt := <-b.Inbox()
	if string(pkt.Data) != "y" {
		t.Errorf("got %q after heal", pkt.Data)
	}
}

func TestPartitionSetSides(t *testing.T) {
	part := NewPartition()
	f := NewFabric(WithInjector(part))
	a := register(t, f, "a")
	b := register(t, f, "b")
	c := register(t, f, "c")

	// SetSides both names the cut and activates it in one step.
	part.SetSides("a")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-b.Inbox():
		t.Fatal("packet crossed partition installed by SetSides")
	default:
	}
	// Same-side traffic (b and c are both implicitly on side B) flows.
	if err := b.Send("c", []byte("y")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if pkt := <-c.Inbox(); string(pkt.Data) != "y" {
		t.Errorf("got %q on same side", pkt.Data)
	}
	// A later SetSides replaces the cut entirely: now {b} is side A, so
	// a<->c flows and b is cut off.
	part.SetSides("b")
	if err := a.Send("c", []byte("z")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if pkt := <-c.Inbox(); string(pkt.Data) != "z" {
		t.Errorf("got %q after SetSides replacement", pkt.Data)
	}
	if err := b.Send("c", []byte("w")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-c.Inbox():
		t.Fatal("packet escaped the replaced partition")
	default:
	}
	part.Heal()
	if err := b.Send("c", []byte("healed")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if pkt := <-c.Inbox(); string(pkt.Data) != "healed" {
		t.Errorf("got %q after heal", pkt.Data)
	}
}

func TestIsolate(t *testing.T) {
	iso := NewIsolate()
	f := NewFabric(WithInjector(iso))
	a := register(t, f, "a")
	b := register(t, f, "b")
	iso.Set("b", true)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-b.Inbox():
		t.Fatalf("packet reached isolated node")
	default:
	}
	iso.Set("b", false)
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if pkt := <-b.Inbox(); string(pkt.Data) != "y" {
		t.Errorf("got %q", pkt.Data)
	}
}

func TestChainInjector(t *testing.T) {
	iso := NewIsolate()
	dup := NewByzantineNet(FaultConfig{Seed: 1, DupRate: 1.0})
	f := NewFabric(WithInjector(Chain{iso, dup}))
	a := register(t, f, "a")
	b := register(t, f, "b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n := 0
	for {
		select {
		case <-b.Inbox():
			n++
		default:
			if n != 2 {
				t.Errorf("chained delivery count = %d, want 2", n)
			}
			return
		}
	}
}

func TestStackModelsOrdering(t *testing.T) {
	// Sanity: measure work of 1000 charges per stack; TEE variants must cost
	// more than native, and recipe-lib must sit between directIO-TEE and
	// kernelNet-TEE.
	cost := func(k StackKind) time.Duration {
		start := time.Now()
		for i := 0; i < 2000; i++ {
			Stacks[k].Charge(1024)
		}
		return time.Since(start)
	}
	dio, knet := cost(StackDirectIO), cost(StackKernelNet)
	dioTEE, knetTEE := cost(StackDirectIOTEE), cost(StackKernelNetTEE)
	rlib := cost(StackRecipeLib)
	if dio >= knet {
		t.Errorf("direct I/O (%v) not cheaper than kernel-net (%v)", dio, knet)
	}
	if dioTEE <= dio || knetTEE <= knet {
		t.Errorf("TEE stacks not slower than native: %v vs %v, %v vs %v", dioTEE, dio, knetTEE, knet)
	}
	if !(rlib > dioTEE && rlib < knetTEE) {
		t.Errorf("recipe-lib (%v) not between direct-I/O-TEE (%v) and kernel-net-TEE (%v)", rlib, dioTEE, knetTEE)
	}
}

func TestStackKindString(t *testing.T) {
	for k, m := range Stacks {
		if m.Kind != k {
			t.Errorf("Stacks[%v].Kind = %v", k, m.Kind)
		}
		if k.String() == "unknown" {
			t.Errorf("missing String for %d", k)
		}
	}
	if StackKind(0).String() != "unknown" {
		t.Errorf("zero StackKind should be unknown")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer func() { _ = b.Close() }()

	if err := a.Send(b.Addr(), []byte("over tcp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case pkt := <-b.Inbox():
		if pkt.From != a.Addr() || string(pkt.Data) != "over tcp" {
			t.Errorf("got %+v", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for tcp delivery")
	}

	// Reply path: b dials back to a's listen address.
	if err := b.Send(a.Addr(), []byte("reply")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	select {
	case pkt := <-a.Inbox():
		if string(pkt.Data) != "reply" {
			t.Errorf("reply = %q", pkt.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for reply")
	}
}

func TestTCPTransportManyMessages(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer func() { _ = b.Close() }()

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case pkt := <-b.Inbox():
			if want := fmt.Sprintf("msg-%d", i); string(pkt.Data) != want {
				t.Fatalf("msg %d = %q, want %q (TCP preserves per-conn order)", i, pkt.Data, want)
			}
		case <-deadline:
			t.Fatalf("timed out at message %d", i)
		}
	}
}

func TestTCPTransportClosedSend(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send("127.0.0.1:1", nil); err != ErrClosed {
		t.Errorf("Send after close err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
