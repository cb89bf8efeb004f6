package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"recipe/internal/core"
	"recipe/internal/workload"
)

// arrival is one pre-generated open-loop operation: when it is due (offset
// from the phase start), which logical session issues it, and what it does.
type arrival struct {
	at      time.Duration
	session int32
	op      workload.Op
}

// schedule draws Poisson arrivals at rate for d. One stream with uniform
// session labels is the superposition of `sessions` independent Poisson
// sessions, so 10 000 sessions share the 2 connections without 10 000
// generator states.
func schedule(rate float64, d time.Duration, gen *workload.Generator, rng *rand.Rand) []arrival {
	out := make([]arrival, 0, int(rate*d.Seconds()*1.1)+16)
	gap := float64(time.Second) / rate
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() * gap)
		if t >= d {
			return out
		}
		out = append(out, arrival{at: t, session: int32(rng.Intn(sessions)), op: gen.Next()})
	}
}

// paceSpin is how far before an arrival's due time the pacer stops sleeping
// and yields instead: a kernel sleep overshoots by tens of microseconds and
// a Go timer below 1 ms by about a millisecond on small hosts.
const paceSpin = 70 * time.Microsecond

// pace returns at due: a raw nanosleep to paceSpin before it, then yields.
func pace(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > paceSpin:
			ts := syscall.NsecToTimespec(int64(d - paceSpin))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep re-checks the clock
		default:
			runtime.Gosched()
		}
	}
}

// connLog is what one connection saw. Only its own worker writes it while
// a phase runs.
type connLog struct {
	client *core.Client
	seq    uint64 // client requests issued so far (core.Client numbers them 1, 2, ...)

	// Open-loop samples.
	lat     []time.Duration // completion - due
	svc     []time.Duration // completion - send
	late    []time.Duration // send - due, when the connection was free before due
	backlog []time.Duration // claim - due, zero when the connection was free
	okAt    []time.Duration // completion offsets of successful ops

	ops, failed, writes, reads int64
	badReads                   int64
	acked                      map[string]uint64 // newest acknowledged version per key

	roots []rootSpan // traced runs only
}

// exec runs one op, checks its reply, and reports whether it succeeded.
// want is the one value Preload and every write store.
func (lg *connLog) exec(want []byte, op workload.Op) bool {
	lg.seq++
	var res core.Result
	var err error
	if op.Read {
		res, err = lg.client.Get(op.Key)
	} else {
		res, err = lg.client.Put(op.Key, op.Value)
	}
	lg.ops++
	switch {
	case err != nil:
		lg.failed++
		return false
	case op.Read:
		lg.reads++
		if !res.OK || !bytes.Equal(res.Value, want) {
			lg.badReads++
		}
	case !res.OK:
		lg.failed++
		return false
	default:
		lg.writes++
		if res.Version.TS > lg.acked[op.Key] {
			lg.acked[op.Key] = res.Version.TS
		}
	}
	return true
}

func newConnLogs(r *rig) []*connLog {
	logs := make([]*connLog, len(r.clients))
	for i, cl := range r.clients {
		logs[i] = &connLog{client: cl, acked: make(map[string]uint64, keys)}
	}
	return logs
}

// resetSamples empties the per-phase samples, keeping capacity for n ops.
func (lg *connLog) resetSamples(n int) {
	lg.lat = make([]time.Duration, 0, n)
	lg.svc = make([]time.Duration, 0, n)
	lg.late = make([]time.Duration, 0, n)
	lg.backlog = make([]time.Duration, 0, n)
	lg.okAt = make([]time.Duration, 0, n)
	lg.ops, lg.failed, lg.writes, lg.reads = 0, 0, 0, 0
}

// fault is raft-failover's schedule: crash the leader at crashAt (offset
// from the open-loop start). The leader is recovered after the open loop.
type fault struct {
	crashAt time.Duration
	// Filled in by the run.
	crashed time.Duration // actual offset of the crash
	leader  string
	err     error
}

// recovery is one timed Cluster.Recover.
type recovery struct {
	dur   time.Duration
	bytes uint64 // fabric bytes from the call until recoverySettle after it
}

// recoverySettle is how long a recovery's traffic is counted after Recover
// returns: the recovered replica's log catch-up runs on after it.
const recoverySettle = time.Second

// recoverTimed recovers a crashed replica with no client load running and
// times it and the traffic it causes.
func recoverTimed(r *rig, id string) (recovery, error) {
	_, _, b0 := r.c.Fabric.Stats()
	t := time.Now()
	if err := r.c.Recover(id, 10*time.Second); err != nil {
		return recovery{}, fmt.Errorf("recover %s: %w", id, err)
	}
	rec := recovery{dur: time.Since(t)}
	time.Sleep(recoverySettle)
	_, _, b1 := r.c.Fabric.Stats()
	rec.bytes = b1 - b0
	return rec, nil
}

// runOpen drives arr open loop over the connections: every arrival is
// claimed by the next free connection, paced to its due time, and charged
// from that due time. It returns the phase's wall time.
func runOpen(r *rig, logs []*connLog, want []byte, arr []arrival, f *fault, tr *tracer) time.Duration {
	per := len(arr)/len(logs) + len(arr)/4 + 16
	for _, lg := range logs {
		lg.resetSamples(per)
	}
	var next atomic.Int64
	var wg, fwg sync.WaitGroup
	start := time.Now()
	if f != nil {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			runFault(r, f, start)
		}()
	}
	for _, lg := range logs {
		wg.Add(1)
		go func(lg *connLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				a := &arr[i]
				due := start.Add(a.at)
				if claim := time.Now(); claim.Before(due) {
					pace(due)
					lg.late = append(lg.late, time.Since(due))
					lg.backlog = append(lg.backlog, 0)
				} else {
					lg.backlog = append(lg.backlog, claim.Sub(due))
				}
				send := time.Now()
				ok := lg.exec(want, a.op)
				done := time.Now()
				lg.lat = append(lg.lat, done.Sub(due))
				lg.svc = append(lg.svc, done.Sub(send))
				if ok {
					lg.okAt = append(lg.okAt, done.Sub(start))
				}
				if tr != nil {
					lg.roots = append(lg.roots, rootSpan{session: a.session, seq: lg.seq, send: send, done: done})
				}
			}
		}(lg)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fwg.Wait()
	return elapsed
}

func runFault(r *rig, f *fault, start time.Time) {
	time.Sleep(time.Until(start.Add(f.crashAt)))
	f.leader, f.err = r.c.WaitForCoordinator(time.Second)
	if f.err != nil {
		return
	}
	f.crashed = time.Since(start)
	r.c.Crash(f.leader)
}

// runClosed has every connection send back to back for d and returns the
// ops completed and the wall time taken.
func runClosed(logs []*connLog, want []byte, gen *workload.Generator, seed int64, d time.Duration) (int64, time.Duration) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, lg := range logs {
		wg.Add(1)
		g := gen.Derive(seed + int64(i+1)*7919)
		go func(lg *connLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if lg.exec(want, g.Next()) {
					done.Add(1)
				}
			}
		}(lg)
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// lostAcks re-reads every key with an acknowledged write through a fresh
// client and counts keys whose newest acknowledged version is gone.
func lostAcks(r *rig, logs []*connLog) (lost, checked int, err error) {
	acked := make(map[string]uint64, keys)
	for _, lg := range logs {
		for k, v := range lg.acked {
			if v > acked[k] {
				acked[k] = v
			}
		}
	}
	cl, err := r.c.Client()
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	for k, v := range acked {
		res, err := cl.Get(k)
		if err != nil {
			return lost, checked, err
		}
		checked++
		if !res.OK || res.Version.TS < v {
			lost++
		}
	}
	return lost, checked, nil
}
