package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/protocols/raft"
	"recipe/internal/seal"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

// layerInputs are the live run's shapes that the isolated runs mirror.
type layerInputs struct {
	workload     string
	load         workload.Config
	aeEntries    int // entries per AppendEntries seen by the traced run
	packetBytes  int // mean fabric packet size
	commitWrites int // writes per WAL group commit
}

// cost is one isolated measurement: time and heap allocations per call.
type cost struct {
	perOp  time.Duration
	allocs float64
}

// measure runs fn n times in each of reps repetitions and returns the
// median time per call and the mean allocations per call.
func measure(reps, n int, fn func(i int)) cost {
	times := make([]time.Duration, reps)
	var mallocs uint64
	var a, b runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&a)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		times[r] = time.Since(start) / time.Duration(n)
		runtime.ReadMemStats(&b)
		mallocs += b.Mallocs - a.Mallocs
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return cost{perOp: times[reps/2], allocs: float64(mallocs) / float64(reps*n)}
}

// clientRequests encodes n client requests of the workload's op stream.
func clientRequests(cfg workload.Config, n int) [][]byte {
	gen := workload.New(cfg)
	out := make([][]byte, n)
	for i := range out {
		op := gen.Next()
		cmd := core.Command{Op: core.OpPut, Key: op.Key, Value: op.Value, ClientID: "client-1", ClientAddr: "addr:client-1", Seq: uint64(i + 1)}
		if op.Read {
			cmd.Op, cmd.Value = core.OpGet, nil
		}
		out[i] = (&core.Wire{Kind: core.KindClientReq, Cmd: &cmd}).Encode()
	}
	return out
}

func shielderPair(cost tee.CostModel) (*authn.Shielder, *authn.Shielder, error) {
	plat, err := tee.NewPlatform("perfbench", tee.WithCostModel(cost))
	if err != nil {
		return nil, nil, err
	}
	s := authn.NewShielder(plat.NewEnclave([]byte("sender")))
	v := authn.NewShielder(plat.NewEnclave([]byte("receiver")))
	key := make([]byte, 32)
	for _, sh := range []*authn.Shielder{s, v} {
		if err := sh.OpenChannel("bench", key); err != nil {
			return nil, nil, err
		}
	}
	return s, v, nil
}

// authnBatch is the batched authn run's messages per envelope.
const authnBatch = 8

// authnRoundtrip is one message through the authn data plane:
// Shield -> AppendTo -> DecodeEnvelopeInto -> Verify.
func authnRoundtrip(in layerInputs) (single, batch cost, err error) {
	reqs := clientRequests(in.load, 256)
	s, v, err := shielderPair(tee.DefaultCostModel())
	if err != nil {
		return
	}
	var buf []byte
	var e authn.Envelope
	var runErr error
	single = measure(5, 4000, func(i int) {
		env, err := s.Shield("bench", core.KindClientReq, reqs[i%len(reqs)])
		if err == nil {
			buf = env.AppendTo(buf[:0])
			err = authn.DecodeEnvelopeInto(&e, buf)
		}
		if err == nil {
			_, _, err = v.Verify(e)
		}
		if err != nil && runErr == nil {
			runErr = err
		}
	})
	items := make([]authn.BatchItem, authnBatch)
	batch = measure(5, 4000/authnBatch, func(i int) {
		for j := range items {
			items[j] = authn.BatchItem{Kind: core.KindClientReq, Payload: reqs[(i*len(items)+j)%len(reqs)]}
		}
		env, err := s.ShieldBatch("bench", items)
		if err == nil {
			buf = env.AppendTo(buf[:0])
			authn.RecyclePayload(&env)
			err = authn.DecodeEnvelopeInto(&e, buf)
		}
		if err == nil {
			_, _, err = v.Verify(e)
		}
		if err != nil && runErr == nil {
			runErr = err
		}
	})
	batch.perOp /= authnBatch
	return single, batch, runErr
}

// wireAE encodes and decodes an AppendEntries carrying the traced run's
// entries per message.
func wireAE(in layerInputs) (cost, error) {
	gen := workload.New(in.load)
	cmds := make([]core.Command, in.aeEntries)
	for i := range cmds {
		op := gen.Next()
		cmds[i] = core.Command{Op: core.OpPut, Key: op.Key, Value: op.Value, ClientID: "client-1", ClientAddr: "addr:client-1", Seq: uint64(i + 1)}
	}
	ae := &core.Wire{Kind: raft.KindAppendEntries, Term: 3, Index: 1000, Commit: 999, Cmds: cmds, Value: make([]byte, 8*len(cmds))}
	var buf []byte
	var runErr error
	c := measure(5, 2000, func(int) {
		buf = ae.AppendTo(buf[:0])
		if _, err := core.DecodeWire(buf); err != nil && runErr == nil {
			runErr = err
		}
	})
	return c, runErr
}

// netSend sends packets of the live mean size across a recipe-lib fabric.
func netSend(in layerInputs) (cost, error) {
	f := netstack.NewFabric(netstack.WithStack(netstack.Stacks[netstack.StackRecipeLib]))
	a, err := f.Register("a")
	if err != nil {
		return cost{}, err
	}
	b, err := f.Register("b")
	if err != nil {
		return cost{}, err
	}
	pkt := make([]byte, in.packetBytes)
	const burst = 1024
	var runErr error
	c := measure(5, burst, func(i int) {
		if err := a.Send("b", pkt); err != nil && runErr == nil {
			runErr = err
		}
		if i%burst == burst-1 {
			for j := 0; j < burst; j++ {
				<-b.Inbox()
			}
		}
	})
	return c, runErr
}

// kvOps times Put and Get on a 10 000-key store inside an enclave under
// the SGX-like cost model, on the workload's key popularity.
func kvOps(in layerInputs) (put, get cost, err error) {
	plat, err := tee.NewPlatform("perfbench-kv", tee.WithCostModel(tee.DefaultCostModel()))
	if err != nil {
		return
	}
	st, err := kvstore.Open(plat.NewEnclave([]byte("kv")), kvstore.Config{Seed: in.load.Seed})
	if err != nil {
		return
	}
	gen := workload.New(in.load)
	val := gen.Value()
	for i := 0; i < gen.Keys(); i++ {
		if err = st.WriteVersioned(gen.Key(i), val, kvstore.Version{TS: 1}); err != nil {
			return
		}
	}
	ks := make([]string, 4096)
	for i := range ks {
		ks[i] = gen.Next().Key
	}
	var runErr error
	put = measure(5, 4000, func(i int) {
		if err := st.WriteVersioned(ks[i%len(ks)], val, kvstore.Version{TS: uint64(i + 2)}); err != nil && runErr == nil {
			runErr = err
		}
	})
	get = measure(5, 4000, func(i int) {
		if _, err := st.Get(ks[i%len(ks)]); err != nil && runErr == nil {
			runErr = err
		}
	})
	return put, get, runErr
}

// sealRun times sealed-WAL group commits (commitWrites appends + fsync)
// and a snapshot of a 10 000-key store. It also returns the fsync p99 the
// WAL's own histogram recorded.
func sealRun(in layerInputs) (commit time.Duration, snapshot time.Duration, fsyncP99 time.Duration, err error) {
	dir := filepath.Join(buildDir, "data", "seal-"+in.workload)
	if err = os.RemoveAll(dir); err != nil {
		return
	}
	defer os.RemoveAll(dir)
	hist := telemetry.NewRegistry().Histogram(core.MetricPhaseWALFsync, "")
	cas, err := attest.NewService(attest.WithLatencyScale(0)) // the live registrar
	if err != nil {
		return
	}
	l, err := seal.Open(dir, make([]byte, 32), "perfbench", cas, seal.Options{FsyncHist: hist})
	if err != nil {
		return
	}
	defer l.Close()
	if _, err = l.Recover(func(kvstore.Mutation) error { return nil }); err != nil {
		return
	}
	plat, err := tee.NewPlatform("perfbench-seal", tee.WithCostModel(tee.DefaultCostModel()))
	if err != nil {
		return
	}
	st, err := kvstore.Open(plat.NewEnclave([]byte("kv")), kvstore.Config{Seed: in.load.Seed})
	if err != nil {
		return
	}
	gen := workload.New(in.load)
	val := gen.Value()
	for i := 0; i < gen.Keys(); i++ {
		if err = st.WriteVersioned(gen.Key(i), val, kvstore.Version{TS: 1}); err != nil {
			return
		}
	}
	var runErr error
	version := uint64(1)
	c := measure(5, 40, func(int) {
		for j := 0; j < in.commitWrites; j++ {
			version++
			m := kvstore.Mutation{Versioned: true, Key: gen.Next().Key, Value: val, Version: kvstore.Version{TS: version}}
			if err := l.Append(m); err != nil && runErr == nil {
				runErr = err
			}
		}
		if err := l.Commit(); err != nil && runErr == nil {
			runErr = err
		}
	})
	snaps := measure(3, 1, func(int) {
		err := l.WriteSnapshot(func(emit func(kvstore.Mutation) bool) error { return st.Dump(emit) })
		if err != nil && runErr == nil {
			runErr = err
		}
	})
	s := hist.Snapshot()
	return c.perOp, snaps.perOp, time.Duration(s.Quantile(0.99)), runErr
}
