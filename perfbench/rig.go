package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"recipe/internal/core"
	"recipe/internal/harness"
	"recipe/internal/netstack"
	"recipe/internal/tee"
)

// rig is one running cluster plus the benchmark's client connections.
type rig struct {
	c       *harness.Cluster
	clients []*core.Client
	dataDir string
}

// setupTimes splits one set-up into the harness calls it is made of.
type setupTimes struct {
	build, elect, preload, client time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.elect + s.preload + s.client }

// clusterSeed seeds the cluster's own randomness (Raft election timers,
// client retry jitter). It is part of the program's configuration, not of
// its inputs, so it stays fixed while --seed varies the generated load:
// different election-timer seeds put the cluster in visibly different
// latency regimes, which would otherwise read as run-to-run noise.
const clusterSeed = 1

// clusterOptions is the one cluster shape every workload runs: 3 shielded
// R-Raft replicas, the SGX-like TEE cost model, the recipe-lib stack model,
// and the in-process fabric with no injected delay.
func clusterOptions(w *spec, dataDir string, factory func(int) core.Protocol) harness.Options {
	cost := tee.DefaultCostModel()
	o := harness.Options{
		Protocol: harness.Raft,
		Nodes:    3,
		Shielded: true,
		TEE:      &cost,
		Stack:    netstack.StackRecipeLib,
		Seed:     clusterSeed,
		Factory:  factory,
	}
	if w.durable {
		o.Durability = true
		o.DataDir = dataDir
	}
	return o
}

// buildRig sets up a serving cluster and times each step: harness.New
// (node attestation and start), the first election, Preload, and attesting
// the client connections.
func buildRig(w *spec, seed int64, factory func(int) core.Protocol) (*rig, setupTimes, error) {
	var st setupTimes
	dataDir := ""
	if w.durable {
		// A fresh directory per cluster: a stopped cluster's files are
		// removed without waiting on them, so a directory is never reused.
		parent := filepath.Join(buildDir, "data")
		if err := os.MkdirAll(parent, 0o750); err != nil {
			return nil, st, err
		}
		var err error
		if dataDir, err = os.MkdirTemp(parent, w.name+"-"); err != nil {
			return nil, st, err
		}
	}
	t0 := time.Now()
	c, err := harness.New(clusterOptions(w, dataDir, factory))
	if err != nil {
		return nil, st, fmt.Errorf("harness.New: %w", err)
	}
	r := &rig{c: c, dataDir: dataDir}
	t1 := time.Now()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		r.stop()
		return nil, st, err
	}
	t2 := time.Now()
	if err := c.Preload(w.load(seed)); err != nil {
		r.stop()
		return nil, st, fmt.Errorf("preload: %w", err)
	}
	t3 := time.Now()
	for i := 0; i < conns; i++ {
		cl, err := c.Client()
		if err != nil {
			r.stop()
			return nil, st, err
		}
		r.clients = append(r.clients, cl)
	}
	t4 := time.Now()
	st = setupTimes{build: t1.Sub(t0), elect: t2.Sub(t1), preload: t3.Sub(t2), client: t4.Sub(t3)}
	return r, st, nil
}

func (r *rig) stop() {
	for _, cl := range r.clients {
		_ = cl.Close()
	}
	r.c.Stop()
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir)
	}
}

// rejected sums a node's authn-layer rejections.
func rejected(s *core.Stats) uint64 {
	return s.DropReplay.Load() + s.DropMAC.Load() + s.DropView.Load() + s.DropGroup.Load() +
		s.DropEpoch.Load() + s.DropMalformed.Load() + s.DropRollback.Load()
}
