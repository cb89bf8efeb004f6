package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"recipe/internal/core"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

// nodeSample is one replica's exported counters at one instant.
type nodeSample struct {
	delivered, rejected, localReads uint64
	queueWait, fsync                telemetry.Snapshot
}

// counterSample is the program's exported counters at one instant. Nodes
// are keyed by instance, so a replica crashed during the phase still
// counts up to its crash and its recovered successor counts from zero.
type counterSample struct {
	cpu            time.Duration
	mem            runtime.MemStats
	packets, bytes uint64
	retries        uint64
	nodes          map[*core.Node]nodeSample
}

// sampleCounters reads every live node, and every node of prev (crashed
// ones included), the fabric, the clients and the Go runtime.
func sampleCounters(r *rig, logs []*connLog, prev *counterSample) counterSample {
	s := counterSample{nodes: map[*core.Node]nodeSample{}}
	nodes := make([]*core.Node, 0, len(r.c.Nodes))
	for _, n := range r.c.Nodes {
		nodes = append(nodes, n)
	}
	if prev != nil {
		for n := range prev.nodes {
			nodes = append(nodes, n)
		}
	}
	for _, n := range nodes {
		st := n.Stats()
		s.nodes[n] = nodeSample{
			delivered:  st.Delivered.Load(),
			rejected:   rejected(st),
			localReads: st.LocalReads.Load(),
			queueWait:  n.PhaseHistogram(core.MetricPhaseQueueWait).Snapshot(),
			fsync:      n.PhaseHistogram(core.MetricPhaseWALFsync).Snapshot(),
		}
	}
	s.packets, _, s.bytes = r.c.Fabric.Stats()
	for _, lg := range logs {
		s.retries += lg.client.Stats().Retries
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = rusageCPU()
	return s
}

// diff stores the counters' movement between before (s0) and after (s).
func (s counterSample) diff(s0 counterSample, p *phase) {
	p.cpu = s.cpu - s0.cpu
	p.mallocs = s.mem.Mallocs - s0.mem.Mallocs
	p.allocB = s.mem.TotalAlloc - s0.mem.TotalAlloc
	p.gcPause = time.Duration(s.mem.PauseTotalNs - s0.mem.PauseTotalNs)
	p.packets = s.packets - s0.packets
	p.netBytes = s.bytes - s0.bytes
	p.retries = s.retries - s0.retries
	var qw, fs telemetry.Snapshot
	for n, a := range s.nodes {
		b := s0.nodes[n] // zero for a replica started during the phase
		p.delivered += a.delivered - b.delivered
		p.rejected += a.rejected - b.rejected
		p.localReads += a.localReads - b.localReads
		d := a.queueWait.Sub(&b.queueWait)
		qw.Merge(&d)
		d = a.fsync.Sub(&b.fsync)
		fs.Merge(&d)
	}
	p.queueWaitP99 = time.Duration(qw.Quantile(0.99))
	p.fsyncs = fs.Count
	p.fsyncP99 = time.Duration(fs.Quantile(0.99))
}

// checks runs the correctness checks on a rig of workload w after its
// phase.
func (b *bench) checks(w *spec, r *rig, logs []*connLog, p *phase) error {
	var bad, reads int64
	for _, lg := range logs {
		bad += lg.badReads
	}
	reads = p.openReads
	b.check(bad == 0, "every read of a preloaded key returned OK with the stored value (%d bad, %d open-loop reads)", bad, reads)
	lost, checked, err := lostAcks(r, logs)
	if err != nil {
		return fmt.Errorf("re-reading acknowledged writes: %w", err)
	}
	b.check(lost == 0 && checked > 0, "no acknowledged write lost (%d of %d written keys re-read stale or missing)", lost, checked)
	if !w.failover {
		var rej uint64
		for _, n := range r.c.Nodes {
			rej += rejected(n.Stats())
		}
		b.check(rej == 0, "no authn rejections on a fault-free workload (%d since the cluster started)", rej)
	}
	return nil
}

// endToEnd is the --trace 0 run: the end-to-end metrics of the untraced
// program.
func (b *bench) endToEnd() error {
	r, _, setup, err := b.setups()
	if err != nil {
		return err
	}
	defer r.stop()
	logs := newConnLogs(r)
	want := workload.New(b.w.load(b.seed)).Value()
	p, err := b.measurePhase(b.w, r, logs, want, b.seconds, nil)
	if err != nil {
		return err
	}
	if err := b.checks(b.w, r, logs, p); err != nil {
		return err
	}
	b.res.Attempted, b.res.Failed = p.attempted, p.failed
	p.printRates()
	b.endToEndMetrics(true, p, setup)
	return nil
}

func (p *phase) printRates() {
	fmt.Printf("open loop: %d arrivals over %v, offered %.0f ops/s, achieved %.0f ops/s; closed loop: %d ops over %v\n",
		p.arrivals, p.openElapsed.Round(time.Millisecond), p.offered, perOp(float64(p.openOK), int64(p.openElapsed))*float64(time.Second),
		p.closedOps, p.closedElapsed.Round(time.Millisecond))
	fmt.Printf("failed %d of %d attempted ops (failed_frac %.6f)\n", p.failed, p.attempted, perOp(float64(p.failed), p.attempted))
}

// endToEndMetrics prints the end-to-end view of one phase; with keep set,
// the gated metrics go into the result. Latency, peak throughput and the
// service gap are printed but not gated: on a shared 2-vCPU host their
// run-to-run spread (IQR over median, 5 seeds, 20 s runs) reached 0.16 for
// p50 on three workloads and 4.4 on the sealed-WAL cluster, 0.30 for peak
// throughput and 1.3 for p99, while process CPU per op stayed within 0.11
// and wire bytes per op within 0.012 on the gated workloads. The traced run
// records the ungated ones as client.* metrics.
func (b *bench) endToEndMetrics(keep bool, p *phase, setup time.Duration) {
	n := len(p.lat)
	b.report(keep, "setup_s", setup.Seconds(), "s", fmt.Sprintf("median of %d set-ups", setupReps))
	b.report(keep, "cpu_us_per_op", us(p.cpu)/float64(max(p.openOps, 1)), "us", fmt.Sprintf("process CPU over %d open-loop ops", p.openOps))
	b.report(keep, "net_bytes_per_op", perOp(float64(p.netBytes), p.openOps), "B", "fabric bytes between all endpoints per open-loop op")
	b.report(false, "p50_us", us(pct(p.lat, 0.5)), "us", fmt.Sprintf("not gated; due to completion, %d samples", n))
	b.report(false, "p90_us", us(pct(p.lat, 0.9)), "us", fmt.Sprintf("not gated; %d samples, %d beyond", n, n/10))
	b.report(false, "p99_us", us(pct(p.lat, 0.99)), "us", fmt.Sprintf("not gated; %d samples, %d beyond", n, n/100))
	b.report(false, "p999_us", us(pct(p.lat, 0.999)), "us", fmt.Sprintf("not gated; %d samples, %d beyond", n, n/1000))
	b.report(false, "peak_ops_s", p.peak(), "1/s", fmt.Sprintf("not gated; closed loop, %d connections", conns))
	b.report(false, "unavail_ms", ms(p.unavail()), "ms", "not gated; "+p.unavailNote())
}

func (p *phase) peak() float64 { return float64(p.closedOps) / p.closedElapsed.Seconds() }

func (p *phase) unavail() time.Duration { return unavailability(p.okAt, p.fault, p.openElapsed) }

func (p *phase) unavailNote() string {
	if p.fault != nil {
		return fmt.Sprintf("longest gap after the leader crash at %v", p.fault.crashed.Round(time.Millisecond))
	}
	return fmt.Sprintf("median over %v windows of the longest completion gap", gapWindow)
}

// traced is the --trace 1 run: two fifths of the time on the untraced
// program for the counters it exports, two fifths on a cluster whose
// protocol calls are wrapped and timed, the last fifth on the sealed-WAL
// cluster for the live seal counters, then the isolated layer runs.
func (b *bench) traced() error {
	if err := checkWrapper(); err != nil {
		b.check(false, "%v", err)
		return nil
	}
	part := b.seconds * 2 / 5
	want := workload.New(b.w.load(b.seed)).Value()
	pu, st, setup, rec, err := b.untracedPart(part, want)
	if err != nil {
		return err
	}
	fmt.Println("untraced cluster:")
	pu.printRates()
	b.endToEndMetrics(false, pu, setup)

	tr := newTracer(clusterSeed)
	pt, tlogs, err := b.tracedPart(part, want, tr)
	if err != nil {
		return err
	}
	fmt.Println("traced cluster:")
	pt.printRates()
	b.endToEndMetrics(false, pt, setup)

	ps, err := b.sealedPhase(b.seconds - 2*part)
	if err != nil {
		return err
	}
	fmt.Printf("sealed-WAL cluster (%s):\n", sealed.why)
	ps.printRates()
	b.res.Attempted = pu.attempted + pt.attempted + ps.attempted
	b.res.Failed = pu.failed + pt.failed + ps.failed

	tr.mu.Lock()
	bad := tr.bad
	tr.mu.Unlock()
	b.check(bad == "", "protocol wrapper forwarded every optional Env interface%s", bad)
	shareU := perOp(float64(pu.localReads), pu.openReads)
	shareT := perOp(float64(pt.localReads), pt.openReads)
	b.check(math.Abs(shareU-shareT) <= readShareTol, "traced and untraced local-read shares agree (%.4f vs %.4f, tolerance %.2f)", shareU, shareT, readShareTol)
	ppoU := perOp(float64(pu.packets), pu.openOps)
	ppoT := perOp(float64(pt.packets), pt.openOps)
	b.check(math.Abs(ppoU-ppoT) <= packetsTol*ppoU, "traced and untraced net.packets_per_op agree (%.4f vs %.4f, tolerance %.0f%%)", ppoU, ppoT, packetsTol*100)

	path := filepath.Join(buildDir, "spans", b.w.name+".csv")
	nspans, err := tr.writeSpans(path, tlogs)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("wrote %d spans to %s\n", nspans, path)
	return b.layerMetrics(st, pu, pt, ps, tr, rec)
}

// untracedPart measures the bare program for d, checks it, and times a
// recovery on it.
func (b *bench) untracedPart(d time.Duration, want []byte) (*phase, setupTimes, time.Duration, recovery, error) {
	r, st, setup, err := b.setups()
	if err != nil {
		return nil, st, 0, recovery{}, err
	}
	defer r.stop()
	logs := newConnLogs(r)
	p, err := b.measurePhase(b.w, r, logs, want, d, nil)
	if err == nil {
		err = b.checks(b.w, r, logs, p)
	}
	if err != nil {
		return nil, st, 0, recovery{}, err
	}
	rec, err := b.recovery(r, p)
	return p, st, setup, rec, err
}

// tracedPart measures, for d, a cluster whose protocol instances tr wraps.
func (b *bench) tracedPart(d time.Duration, want []byte, tr *tracer) (*phase, []*connLog, error) {
	r, _, err := buildRig(b.w, b.seed, tr.factory)
	if err != nil {
		return nil, nil, err
	}
	defer r.stop()
	logs := newConnLogs(r)
	p, err := b.measurePhase(b.w, r, logs, want, d, tr)
	if err == nil {
		err = b.checks(b.w, r, logs, p)
	}
	return p, logs, err
}

// sealedPhase measures, for d, an untraced sealed-WAL cluster and checks
// it: above all, that no acknowledged write is lost.
func (b *bench) sealedPhase(d time.Duration) (*phase, error) {
	r, _, err := buildRig(sealed, b.seed, nil)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	logs := newConnLogs(r)
	want := workload.New(sealed.load(b.seed)).Value()
	p, err := b.measurePhase(sealed, r, logs, want, d, nil)
	if err == nil {
		err = b.checks(sealed, r, logs, p)
	}
	return p, err
}

// recovery is raft-failover's recovery of its crashed leader, or else a
// follower crashed and recovered after the phase.
func (b *bench) recovery(r *rig, p *phase) (recovery, error) {
	if p.fault != nil {
		return p.recovered, nil
	}
	leader, err := r.c.WaitForCoordinator(time.Second)
	if err != nil {
		return recovery{}, err
	}
	victim := ""
	for _, id := range r.c.Order {
		if id != leader {
			victim = id
			break
		}
	}
	r.c.Crash(victim)
	return recoverTimed(r, victim)
}

// layerMetrics reports every per-layer metric. Counters come from the
// untraced cluster (pu), span-derived numbers from the traced cluster (pt), live
// seal counters from the sealed-WAL cluster (ps).
func (b *bench) layerMetrics(st setupTimes, pu, pt, ps *phase, tr *tracer, rec recovery) error {
	ops := pu.openOps
	tc := tr.counters()
	tOps := pt.openOps + pt.closedOps
	tWrites := pt.openWrites + pt.closedWrites

	in := layerInputs{
		workload:    b.w.name,
		load:        b.w.load(b.seed),
		aeEntries:   max(1, int(perOp(float64(tc.aeEntries), tc.aeMsgs)+0.5)),
		packetBytes: max(64, int(perOp(float64(pu.netBytes), int64(pu.packets)))),
		// Every replica fsyncs its own WAL: writes per fsync per replica.
		commitWrites: max(1, int(3*perOp(float64(ps.openWrites), int64(ps.fsyncs))+0.5)),
	}
	authnOne, authnMany, err := authnRoundtrip(in)
	if err != nil {
		return fmt.Errorf("authn run: %w", err)
	}
	wire, err := wireAE(in)
	if err != nil {
		return fmt.Errorf("wire run: %w", err)
	}
	netc, err := netSend(in)
	if err != nil {
		return fmt.Errorf("net run: %w", err)
	}
	put, get, err := kvOps(in)
	if err != nil {
		return fmt.Errorf("kv run: %w", err)
	}
	commit, snap, isoFsync, err := sealRun(in)
	if err != nil {
		return fmt.Errorf("seal run: %w", err)
	}
	fmt.Printf("isolated runs mirror %s: its client requests (%d B values), %d entries per AppendEntries, %d B packets; and %s: %d writes per WAL commit\n",
		in.workload, valueSize, in.aeEntries, in.packetBytes, sealed.name, in.commitWrites)
	fmt.Println("protocol call time by kind (traced cluster, all replicas):")
	for k := uint8(0); k < numSpanKinds; k++ {
		n := tr.kindCalls[k].Load()
		fmt.Printf("  %-10s %8d calls  %8.3f us/op\n", spanNames[k], n, us(time.Duration(tr.kindNs[k].Load()))/float64(max(tOps, 1)))
	}

	late, svc := pct(pu.late, 0.5), pct(pu.svc, 0.5)
	verdict := "the latencies measure the cluster"
	if late*4 > svc {
		verdict = "the generator, not the cluster, sets the latencies"
	}
	fmt.Printf("run validity: generator lateness p50 %.1f us vs service p50 %.1f us: %s\n", us(late), us(svc), verdict)
	fmt.Println("per-layer metrics:")
	b.report(true, "gen.late_p50_us", us(pct(pu.late, 0.5)), "us", fmt.Sprintf("send - due when a connection was free, %d samples", len(pu.late)))
	b.report(true, "gen.late_p99_us", us(pct(pu.late, 0.99)), "us", fmt.Sprintf("%d samples", len(pu.late)))
	b.report(true, "gen.backlog_p99_us", us(pct(pu.bl, 0.99)), "us", fmt.Sprintf("wait for a busy connection, %d arrivals", len(pu.bl)))
	b.report(true, "client.due_p50_us", us(pct(pu.lat, 0.5)), "us", fmt.Sprintf("open loop, due to completion, %d samples", len(pu.lat)))
	b.report(true, "client.due_p99_us", us(pct(pu.lat, 0.99)), "us", fmt.Sprintf("%d samples, %d beyond", len(pu.lat), len(pu.lat)/100))
	b.report(true, "client.peak_ops_s", pu.peak(), "1/s", fmt.Sprintf("closed loop, %d connections", conns))
	b.report(true, "client.unavail_ms", ms(pu.unavail()), "ms", pu.unavailNote())
	b.report(true, "client.service_p50_us", us(pct(pu.svc, 0.5)), "us", fmt.Sprintf("send to completion, %d samples", len(pu.svc)))
	b.report(true, "client.service_p99_us", us(pct(pu.svc, 0.99)), "us", fmt.Sprintf("%d samples", len(pu.svc)))
	b.report(true, "client.retries_per_kop", perOp(1000*float64(pu.retries), ops), "count", "Client.Stats retries per 1000 open-loop ops")
	b.report(true, "setup.build_ms", ms(st.build), "ms", "harness.New")
	b.report(true, "setup.elect_ms", ms(st.elect), "ms", "WaitForCoordinator")
	b.report(true, "setup.preload_ms", ms(st.preload), "ms", "Preload")
	b.report(true, "setup.client_ms", ms(st.client), "ms", "attesting the client connections")
	b.report(true, "authn.roundtrip_ns", float64(authnOne.perOp), "ns", "isolated Shield+AppendTo+DecodeEnvelopeInto+Verify")
	b.report(true, "authn.batch_ns_per_msg", float64(authnMany.perOp), "ns", fmt.Sprintf("isolated, %d messages per envelope", authnBatch))
	b.report(true, "authn.allocs_per_roundtrip", authnOne.allocs, "count", "isolated")
	b.report(true, "authn.delivered_per_op", perOp(float64(pu.delivered), ops), "count", "Node.Stats Delivered per open-loop op")
	b.report(true, "authn.rejected", float64(pu.rejected), "count", "Node.Stats Drop* during the open loop")
	b.report(true, "wire.ae_roundtrip_ns", float64(wire.perOp), "ns", fmt.Sprintf("isolated AppendTo+DecodeWire, %d entries", in.aeEntries))
	b.report(true, "wire.allocs_per_ae", wire.allocs, "count", "isolated")
	b.report(true, "net.packets_per_op", perOp(float64(pu.packets), ops), "count", "Fabric.Stats")
	b.report(true, "net.bytes_per_op", perOp(float64(pu.netBytes), ops), "B", "Fabric.Stats")
	b.report(true, "net.send_ns", float64(netc.perOp), "ns", fmt.Sprintf("isolated Endpoint.Send, %d B", in.packetBytes))
	b.report(true, "raft.entries_per_commit", perOp(float64(tc.aeEntries), tWrites), "count", fmt.Sprintf("AE entries shipped per acknowledged write, %d writes", tWrites))
	b.report(true, "raft.ae_per_commit", perOp(float64(tc.aeMsgs), tWrites), "count", "AppendEntries sent per acknowledged write")
	b.report(true, "raft.step_us_per_op", us(tc.step)/float64(max(tOps, 1)), "us", "protocol call time, all replicas")
	b.report(true, "raft.self_us_per_op", us(tc.step-tc.env)/float64(max(tOps, 1)), "us", "protocol self time: calls minus Env time")
	b.report(true, "raft.env_us_per_op", us(tc.env)/float64(max(tOps, 1)), "us", "time inside Env Send/Broadcast/Reply")
	b.report(true, "raft.calls_per_op", perOp(float64(tc.calls), tOps), "count", fmt.Sprintf("%d sends, %d broadcasts, %d replies", tc.sends, tc.broadcasts, tc.replies))
	b.report(true, "raft.elections", float64(tc.elections), "count", "leaders elected during the traced phases")
	b.report(true, "kv.put_ns", float64(put.perOp), "ns", "isolated WriteVersioned, 10k keys")
	b.report(true, "kv.get_ns", float64(get.perOp), "ns", "isolated Get, 10k keys")
	b.report(true, "seal.group_commit_us", us(commit), "us", fmt.Sprintf("isolated, %d appends + fsync", in.commitWrites))
	b.report(true, "seal.snapshot_ms", ms(snap), "ms", "isolated, 10k keys")
	b.report(true, "seal.fsyncs_per_write", perOp(float64(ps.fsyncs), ps.openWrites), "count", "live, all replicas of the sealed-WAL cluster")
	b.report(true, "seal.fsync_p99_us", us(ps.fsyncP99), "us", fmt.Sprintf("live recipe_phase_wal_fsync_ns, %d fsyncs (isolated group commits: %.1f us)", ps.fsyncs, us(isoFsync)))
	b.report(true, "seal.cpu_us_per_op", us(ps.cpu)/float64(max(ps.openOps, 1)), "us", fmt.Sprintf("process CPU over %d open-loop ops of the sealed-WAL cluster", ps.openOps))
	b.report(true, "seal.due_p99_us", us(pct(ps.lat, 0.99)), "us", fmt.Sprintf("sealed-WAL cluster, due to completion, %d samples, %d beyond", len(ps.lat), len(ps.lat)/100))
	b.report(true, "node.queue_wait_p99_us", us(pu.queueWaitP99), "us", "recipe_phase_queue_wait_ns")
	b.report(true, "node.local_read_share", perOp(float64(pu.localReads), pu.openReads), "ratio", "Node.Stats LocalReads per open-loop read")
	b.report(true, "recovery.recover_ms", ms(rec.dur), "ms", "Cluster.Recover")
	b.report(true, "recovery.net_mb", float64(rec.bytes)/1e6, "MB", fmt.Sprintf("fabric bytes from Recover until %v after it, no client load", recoverySettle))
	b.report(true, "mem.allocs_per_op", perOp(float64(pu.mallocs), ops), "count", "runtime.MemStats over the open loop")
	b.report(true, "mem.bytes_per_op", perOp(float64(pu.allocB), ops), "B", "")
	b.report(true, "mem.gc_pause_ms", ms(pu.gcPause), "ms", "total over the open loop")
	b.report(true, "trace.overhead_p50_ratio", perOp(float64(pct(pt.lat, 0.5)), int64(pct(pu.lat, 0.5))), "ratio", "traced p50_us / untraced p50_us")
	b.report(true, "trace.overhead_cpu_ratio", (us(pt.cpu)/float64(max(pt.openOps, 1)))/(us(pu.cpu)/float64(max(pu.openOps, 1))), "ratio", "traced / untraced cpu_us_per_op")
	return nil
}
