// Command perfbench is the repository benchmark. One invocation runs one
// R-Raft workload against an in-process cluster of 3 shielded replicas
// (SGX-like TEE cost model, recipe-lib stack model, in-process fabric with
// zero injected message delay, so latency is processor time only), checks
// the cluster's outputs, and prints its metrics, the last line being one
// JSON object:
//
//	bash perfbench/run.sh --workload raft-mixed --seed 1 --seconds 10 --trace 0
//
// Load comes from this process: 10 000 logical sessions multiplexed over 2
// connections, an open-loop Poisson phase at a fixed offered rate (every op
// charged from its due time), then a closed-loop phase on the same
// connections for peak throughput. --seed drives the op stream and the
// arrivals; the cluster's own seed is fixed.
//
// --trace 0 reports the gated end-to-end metrics (setup_s, cpu_us_per_op,
// net_bytes_per_op) and prints latency percentiles, peak throughput and the
// longest service gap beside them. --trace 1 splits the same time between
// an untraced and a traced cluster of the workload and a sealed-WAL cluster
// (live seal counters), runs isolated layer measurements on inputs shaped
// like the workload's, and reports the per-layer metrics and the tracing
// overhead. Layers are measured from outside: the benchmark
// times calls into their public functions and reads counters the program
// exports. Spans of the traced run are written to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"recipe/internal/workload"
)

const (
	conns        = 2      // client connections (= cores of the reference host)
	sessions     = 10_000 // logical sessions multiplexed over the connections
	keys         = 10_000
	valueSize    = 256
	setupReps    = 9 // set-ups per run; setup_s is their median
	warmup       = 300 * time.Millisecond
	buildDir     = ".bench_build"
	openShare    = 0.9 // of the measured time; the rest is the closed loop
	gapWindow    = 100 * time.Millisecond
	readShareTol = 0.05 // traced and untraced local-read shares may differ by this much
	packetsTol   = 0.15 // and packets per op by this share
)

// spec is one workload.
type spec struct {
	name     string
	why      string
	mix      workload.Config
	rate     float64 // offered open-loop ops/s, about a third of peak_ops_s on a 2-core host
	durable  bool
	failover bool
}

func (w *spec) load(seed int64) workload.Config {
	c := w.mix
	c.Keys, c.ValueSize, c.Seed = keys, valueSize, seed
	return c
}

var specs = []*spec{
	{name: "raft-mixed", rate: 4500, mix: workload.Config{ReadRatio: 0.5},
		why: "50% writes at 4500 ops/s: every write crosses authn, wire, net, raft replication and kvstore, so replication and batching changes show here"},
	{name: "raft-read", rate: 6500, mix: workload.ReadHotspot(valueSize),
		why: "95% hotspot reads at 6500 ops/s answered by the leaseholder without consensus: a write-path change must leave it unchanged"},
	{name: "raft-failover", rate: 2000, mix: workload.Config{ReadRatio: 0.5}, failover: true,
		why: "raft-mixed's mix at 2000 ops/s with the leader crashed and recovered mid-run: view change, client retry and recovery"},
}

// sealed is the sealed-WAL cluster every traced run measures beside its
// workload, for the live seal counters. It is not a gated workload: its
// CPU per op follows how many writes share each fsync, which follows the
// shared disk's fsync latency, and in sets of 10 runs of the same code its
// spread (IQR over median) reached 0.22 and 0.27, past the 0.25 bound.
var sealed = &spec{name: "sealed-wal", rate: 1500, mix: workload.Config{ReadRatio: 0.1}, durable: true,
	why: "sealed WAL on, 90% writes at 1500 ops/s: group-commit fsyncs and checkpoints"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the op stream and the arrival schedule")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *spec
	for _, s := range specs {
		if s.name == *name {
			w = s
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <raft-mixed|raft-read|raft-failover> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, res: result{Correct: true, Metrics: map[string]metric{}}}
	b.provenance(*trace == 1)
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation's state and result.
type bench struct {
	w       *spec
	seed    int64
	seconds time.Duration
	res     result
}

func (b *bench) provenance(traced bool) {
	mode := "end-to-end (untraced)"
	if traced {
		mode = "per-layer (untraced, traced, then sealed-WAL cluster)"
	}
	fmt.Printf("workload %s: %s\n", b.w.name, b.w.why)
	fmt.Printf("mode %s; seed %d; measured %v; numcpu %d; gomaxprocs %d; %s\n",
		mode, b.seed, b.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("cluster: raft, 3 replicas, shielded, tee.DefaultCostModel, recipe-lib stack, injected message delay 0\n")
	skew := b.w.mix.Skew
	if skew == "" {
		skew = workload.Zipfian
	}
	fmt.Printf("load: %d sessions over %d connections, %d %s keys, %.0f%% reads, %d B values, offered %.0f ops/s open loop\n",
		sessions, conns, keys, skew, 100*b.w.mix.ReadRatio, valueSize, b.w.rate)
}

// report prints one metric and, when keep is set, records it in the result.
func (b *bench) report(keep bool, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-28s %14.4f %s%s\n", name, v, unit, note)
	if keep {
		b.res.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// check records a correctness check; any failure fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		b.res.Correct = false
	}
	fmt.Printf("check %s %s\n", status, fmt.Sprintf(format, args...))
}

// setups builds the cluster setupReps times, keeps the last one serving,
// and returns the median of each timed step.
func (b *bench) setups() (*rig, setupTimes, time.Duration, error) {
	var all []setupTimes
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.stop()
		}
		var st setupTimes
		var err error
		r, st, err = buildRig(b.w, b.seed, nil)
		if err != nil {
			return nil, setupTimes{}, 0, err
		}
		all = append(all, st)
	}
	pick := func(f func(setupTimes) time.Duration) time.Duration {
		v := make([]time.Duration, len(all))
		for i, s := range all {
			v[i] = f(s)
		}
		return median(v)
	}
	med := setupTimes{
		build:   pick(func(s setupTimes) time.Duration { return s.build }),
		elect:   pick(func(s setupTimes) time.Duration { return s.elect }),
		preload: pick(func(s setupTimes) time.Duration { return s.preload }),
		client:  pick(func(s setupTimes) time.Duration { return s.client }),
	}
	return r, med, pick(setupTimes.total), nil
}

// phase is everything one measured phase (open loop then closed loop)
// produced.
type phase struct {
	arrivals            int
	offered             float64 // open-loop ops/s
	openElapsed         time.Duration
	lat, svc, late, bl  []time.Duration
	okAt                []time.Duration
	openOps, openOK     int64
	openWrites          int64
	openReads           int64
	cpu                 time.Duration
	mallocs, allocB     uint64
	gcPause             time.Duration
	packets, netBytes   uint64
	delivered, rejected uint64
	localReads          uint64
	retries             uint64
	queueWaitP99        time.Duration
	fsyncs              uint64
	fsyncP99            time.Duration
	closedOps           int64
	closedWrites        int64
	closedElapsed       time.Duration
	attempted, failed   int64
	fault               *fault
	recovered           recovery // raft-failover's recovery of the crashed leader
}

// measurePhase warms the rig up, then runs the open-loop and closed-loop
// phases, reading the program's counters around the open loop.
func (b *bench) measurePhase(w *spec, r *rig, logs []*connLog, want []byte, d time.Duration, tr *tracer) (*phase, error) {
	gen := workload.New(w.load(b.seed))
	runClosed(logs, want, gen, b.seed+101, warmup)
	openDur := time.Duration(float64(d) * openShare)
	arr := schedule(w.rate, openDur, workload.New(w.load(b.seed)), rand.New(rand.NewSource(b.seed+1)))
	p := &phase{offered: w.rate}
	if w.failover {
		p.fault = &fault{crashAt: openDur * 3 / 10}
	}
	runtime.GC()
	before := sampleCounters(r, logs, nil)
	if tr != nil {
		tr.on.Store(true)
	}
	p.arrivals = len(arr)
	p.openElapsed = runOpen(r, logs, want, arr, p.fault, tr)
	after := sampleCounters(r, logs, &before)
	if p.fault != nil {
		if p.fault.err != nil {
			return nil, fmt.Errorf("failover: %w", p.fault.err)
		}
		var err error
		if p.recovered, err = recoverTimed(r, p.fault.leader); err != nil {
			return nil, err
		}
	}
	for _, lg := range logs {
		p.lat = append(p.lat, lg.lat...)
		p.svc = append(p.svc, lg.svc...)
		p.late = append(p.late, lg.late...)
		p.bl = append(p.bl, lg.backlog...)
		p.okAt = append(p.okAt, lg.okAt...)
		p.openOps += lg.ops
		p.openOK += lg.ops - lg.failed
		p.openWrites += lg.writes
		p.openReads += lg.reads
		p.failed += lg.failed
	}
	p.attempted = p.openOps
	after.diff(before, p)

	for _, lg := range logs {
		lg.ops, lg.failed, lg.writes, lg.reads = 0, 0, 0, 0
	}
	p.closedOps, p.closedElapsed = runClosed(logs, want, gen, b.seed+202, d-openDur)
	if tr != nil {
		tr.on.Store(false)
	}
	for _, lg := range logs {
		p.attempted += lg.ops
		p.failed += lg.failed
		p.closedWrites += lg.writes
	}
	return p, nil
}

// rusageCPU is the process's user+system CPU time so far.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// pct returns the nearest-rank q-quantile of v (sorted in place).
func pct(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q*float64(len(v))+0.999999) - 1
	return v[max(0, min(i, len(v)-1))]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

// unavailability is the longest interval without a successful completion.
// With a fault it is the longest gap that ends after the crash: replies
// already in flight at the crash still land just after it. Without
// one, a single longest gap is an extreme value dominated by chance, so it
// is the median over 100 ms windows of each window's longest gap.
func unavailability(okAt []time.Duration, f *fault, phaseLen time.Duration) time.Duration {
	sort.Slice(okAt, func(i, j int) bool { return okAt[i] < okAt[j] })
	if f != nil {
		var longest time.Duration
		prev := time.Duration(0)
		for _, t := range append(okAt, phaseLen) {
			if t > f.crashed {
				longest = max(longest, t-prev)
			}
			prev = t
		}
		return longest
	}
	var maxima []time.Duration
	for i := 1; i < len(okAt); i++ {
		w := int(okAt[i-1] / gapWindow)
		for len(maxima) <= w {
			maxima = append(maxima, 0)
		}
		maxima[w] = max(maxima[w], okAt[i]-okAt[i-1])
	}
	if len(maxima) == 0 {
		return phaseLen
	}
	return median(maxima)
}
