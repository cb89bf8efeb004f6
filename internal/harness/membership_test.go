package harness

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recipe/internal/netstack"
)

// selfManageOpts: fastOpts plus the self-managing membership plane.
func selfManageOpts(p ProtocolKind) Options {
	o := fastOpts(p, true)
	o.SelfManage = true
	return o
}

// liveIn reports whether id is currently a running member of group 0.
func liveIn(c *Cluster, id string) bool {
	ids, _ := c.liveGroupNodes(0)
	for _, m := range ids {
		if m == id {
			return true
		}
	}
	return false
}

// waitUntil polls cond at tick cadence until it holds or the deadline hits.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRollingRestartUnderLoad crashes each replica of a 3-replica self-managing
// group in turn, under continuous client load, with zero operator calls: the
// surviving detectors condemn the corpse, the supervisor evicts it through a
// CAS-signed republish, and auto-repair brings it back (sealed local recovery
// plus suffix transfer) before the next victim falls. Every acknowledged write
// must be readable at the end — the tentpole's zero-lost-acks criterion.
func TestRollingRestartUnderLoad(t *testing.T) {
	opts := selfManageOpts(Raft)
	opts.Durability = true
	c := startCluster(t, opts)

	var (
		ackedMu sync.Mutex
		acked   []string
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	writer, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = writer.Close() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			key := fmt.Sprintf("roll/k%d", i)
			if res, err := writer.Put(key, []byte("v")); err == nil && res.OK {
				ackedMu.Lock()
				acked = append(acked, key)
				ackedMu.Unlock()
			}
			// A failed Put is fine mid-failover; only acks must survive.
		}
	}()

	order := append([]string(nil), c.Groups[0].Order...)
	for _, victim := range order {
		c.Crash(victim)
		waitUntil(t, 20*time.Second, fmt.Sprintf("auto-eviction of %s", victim), func() bool {
			return c.Evicted(victim)
		})
		waitUntil(t, 20*time.Second, fmt.Sprintf("auto-repair of %s", victim), func() bool {
			return !c.Evicted(victim) && liveIn(c, victim)
		})
	}
	stop.Store(true)
	wg.Wait()

	ackedMu.Lock()
	keys := append([]string(nil), acked...)
	ackedMu.Unlock()
	if len(keys) == 0 {
		t.Fatal("no writes were acknowledged during the rolling restart")
	}
	reader, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = reader.Close() }()
	for _, key := range keys {
		res, err := reader.Get(key)
		if err != nil || !res.OK || !bytes.Equal(res.Value, []byte("v")) {
			t.Fatalf("acked write %s lost after rolling restart: %+v, %v", key, res, err)
		}
	}
	susp, evs, _ := c.MembershipStats()
	if susp == 0 {
		t.Error("no suspicions counted across a 3-crash rolling restart")
	}
	if evs == 0 {
		t.Error("no evictions observed by surviving replicas")
	}
}

// TestGrayFailureSuspectedAndEvicted drives the case heartbeat-only detectors
// miss: a replica whose links are slow but alive. Its packets still arrive and
// authenticate — just too late to count as probe evidence (the detector only
// credits an ack carrying the nonce of the outstanding probe). The survivors
// suspect it, gossip the suspicion, declare it failed, and the supervisor
// evicts it through a signed epoch bump while the group keeps serving.
func TestGrayFailureSuspectedAndEvicted(t *testing.T) {
	delay := netstack.NewLinkDelay(7)
	opts := selfManageOpts(Raft)
	opts.Injector = delay
	c := startCluster(t, opts)
	leader, err := c.Groups[0].WaitForCoordinator(5 * time.Second)
	if err != nil {
		t.Fatalf("WaitForCoordinator: %v", err)
	}
	var victim string
	for _, id := range c.Groups[0].Order {
		if id != leader {
			victim = id
			break
		}
	}
	// Hold the eviction open: the machine is "down" so auto-repair defers
	// (repairing would clear the slow links' victim and re-admit it).
	c.SetMachineDown(victim, true)

	epochBefore := c.Epoch()
	// 50ms base delay dwarfs the ack window (a few 1ms ticks): every probe
	// of the victim times out, every ack it sends arrives stale.
	delay.SetNode(victim, 50*time.Millisecond, 10*time.Millisecond)

	// The eviction is complete once the published map omits the victim and
	// some survivor has adopted it (the mark alone is set mid-eviction).
	waitUntil(t, 20*time.Second, "gray replica eviction", func() bool {
		if !c.Evicted(victim) {
			return false
		}
		m, _ := c.Map()
		for _, id := range m.Members[0] {
			if id == victim {
				return false
			}
		}
		_, evs, _ := c.MembershipStats()
		return evs > 0
	})
	if got := c.Epoch(); got <= epochBefore {
		t.Errorf("eviction did not bump the epoch: %d -> %d", epochBefore, got)
	}
	susp, evs, _ := c.MembershipStats()
	if susp == 0 {
		t.Error("gray failure raised no suspicions")
	}
	if evs == 0 {
		t.Error("gray failure eviction not observed by survivors")
	}
	// The survivors' flight recorders carry the suspect/evict breadcrumbs.
	var sawSuspect, sawEvict bool
	for _, n := range c.liveNodes() {
		for _, e := range n.TraceEvents() {
			switch e.Kind {
			case "suspect":
				sawSuspect = true
			case "evict":
				sawEvict = true
			}
		}
	}
	if !sawSuspect || !sawEvict {
		t.Errorf("trace events missing: suspect=%v evict=%v", sawSuspect, sawEvict)
	}
	// The group (leader + one healthy follower) is still live.
	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = cli.Close() }()
	if res, err := cli.Put("post-gray", []byte("x")); err != nil || !res.OK {
		t.Fatalf("Put after gray eviction: %+v, %v", res, err)
	}
	if ds := delay.Delayed(); ds == 0 {
		t.Error("LinkDelay never delayed a packet")
	}
}

// TestThunderingHerdAdmission evicts a replica, then reconnects a herd of
// clients against the survivors at many times the admission rate: the
// token-bucket gate sheds the excess with retriable busy replies (counted on
// both sides) and the event loop stays live throughout.
func TestThunderingHerdAdmission(t *testing.T) {
	opts := selfManageOpts(Raft)
	opts.AdmissionRate = 50 // per client ops/s (burst 5) — far below the herd's demand
	c := startCluster(t, opts)

	victim := c.Groups[0].Order[len(c.Groups[0].Order)-1]
	if lead, err := c.Groups[0].WaitForCoordinator(5 * time.Second); err == nil && lead == victim {
		victim = c.Groups[0].Order[0]
	}
	c.SetMachineDown(victim, true) // keep the eviction open during the herd
	c.Crash(victim)
	waitUntil(t, 20*time.Second, "victim eviction", func() bool {
		return c.Evicted(victim)
	})

	const herd = 8
	var (
		wg          sync.WaitGroup
		busy, acked atomic.Uint64
	)
	for i := 0; i < herd; i++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatalf("Client %d: %v", i, err)
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() { _ = cli.Close() }()
			deadline := time.Now().Add(1500 * time.Millisecond)
			for j := 0; time.Now().Before(deadline); j++ {
				res, err := cli.Put(fmt.Sprintf("herd/%d/%d", idx, j), []byte("x"))
				if err == nil && res.OK {
					acked.Add(1)
				}
			}
			busy.Add(cli.Stats().BusyRejects)
		}(i)
	}
	wg.Wait()

	if acked.Load() == 0 {
		t.Fatal("survivors served nothing under the herd — event loop not live")
	}
	_, _, rejects := c.MembershipStats()
	if rejects == 0 {
		t.Error("admission gate never shed an operation under 8x saturation")
	}
	if busy.Load() == 0 {
		t.Error("no client observed a retriable busy reply")
	}
}

// TestAdaptiveLeaseWidensAndNarrows exercises the satellite lease controller:
// reads against an always-expired short lease pile up LeaseFallbacks, the
// leader proposes a wider lease, followers widen their grants first and ack,
// and the holder width follows; once the fallback source stops, calm windows
// narrow it back to base.
func TestAdaptiveLeaseWidensAndNarrows(t *testing.T) {
	opts := fastOpts(Raft, true)
	opts.AdaptiveLease = true
	opts.LeaderLeaseTicks = 3 // 3ms lease: any idle gap expires it
	c := startCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = cli.Close() }()
	if _, err := cli.Put("al/k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	leaderWidth := func() (time.Duration, time.Duration, bool) {
		for _, n := range c.liveNodes() {
			if n.Status().IsCoordinator {
				h, g := n.LeaseWidths()
				return h, g, true
			}
		}
		return 0, 0, false
	}
	base := 3 * c.opts.TickEvery

	// Phase 1: idle-then-read so every read finds the lease expired and
	// detours to consensus (a LeaseFallback), until the controller widens.
	waitUntil(t, 20*time.Second, "lease widening", func() bool {
		time.Sleep(2 * base)
		if _, err := cli.Get("al/k"); err != nil {
			return false
		}
		h, _, ok := leaderWidth()
		return ok && h > base
	})

	// Phase 2: no reads at all — zero fallbacks per window — and the width
	// must narrow back to base after the calm hysteresis.
	waitUntil(t, 30*time.Second, "lease narrowing", func() bool {
		h, _, ok := leaderWidth()
		return ok && h == base
	})
}
