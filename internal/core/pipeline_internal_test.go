package core

import (
	"fmt"
	"runtime"
	"testing"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/netstack"
	"recipe/internal/tee"
)

// TestStageHandoffAllocFree: the stage boundary types travel by value and
// the worker routing is hash-only, so a message crossing dispatcher →
// ingress worker → loop (or loop → egress worker) pays zero heap
// allocations for the handoff itself — the pooled payload buffers cross by
// reference. This is the stage-boundary half of the hot-path allocation
// budget; the crypto half is authn's TestHotPathAllocBudget.
func TestStageHandoffAllocFree(t *testing.T) {
	ingress := make(chan ingressFrame, 8)
	verified := make(chan verifiedMsg, 8)
	egress := make(chan egressJob, 8)
	frame := ingressFrame{from: "peer", env: authn.Envelope{Channel: "grp:0:a->b"}}
	msg := verifiedMsg{from: "peer", w: &Wire{Kind: KindClientReq}}
	items := make([]authn.BatchItem, 4)
	job := egressJob{to: "peer", items: items}

	allocs := testing.AllocsPerRun(200, func() {
		_ = stageHash(frame.env.Channel, 4)
		ingress <- frame
		<-ingress
		verified <- msg
		<-verified
		egress <- job
		<-egress
	})
	if allocs != 0 {
		t.Fatalf("stage handoff allocates %.1f times per message, want 0", allocs)
	}
}

// TestPipelineWorkerCountResolution pins the derived stage width: one
// worker per usable CPU, capped at maxPipelineWorkers, and never zero — a
// single-core host still runs one ingress and one egress worker. Shielded
// and native nodes size their stages alike.
func TestPipelineWorkerCountResolution(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fab := netstack.NewFabric()
	plat, err := tee.NewPlatform("workers", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	for _, c := range []struct{ procs, want int }{{1, 1}, {2, 2}, {16, 8}} {
		runtime.GOMAXPROCS(c.procs)
		for _, shielded := range []bool{true, false} {
			id := fmt.Sprintf("w%d-%v", c.procs, shielded)
			ep, err := fab.Register(id)
			if err != nil {
				t.Fatalf("register %s: %v", id, err)
			}
			n, err := NewNode(plat.NewEnclave([]byte(id)), ep, nil, NodeConfig{
				Secrets:  attest.Secrets{NodeID: id, MasterKey: make([]byte, 32), Membership: []string{id}},
				Shielded: shielded,
			})
			if err != nil {
				t.Fatalf("node %s: %v", id, err)
			}
			if got := n.pipe.workers; got != c.want {
				t.Errorf("GOMAXPROCS=%d shielded=%v: %d workers per stage, want %d", c.procs, shielded, got, c.want)
			}
			n.Discard()
		}
	}
}

// TestAdmitBurstDerivedFromRate pins the admission bucket depth: a tenth of
// the per-client rate, and never below one token.
func TestAdmitBurstDerivedFromRate(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		burst float64
	}{{5, 1}, {50, 5}, {1000, 100}} {
		if got := newAdmitState(c.rate).burst; got != c.burst {
			t.Errorf("rate %v: burst %v, want %v", c.rate, got, c.burst)
		}
	}
}
