package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"recipe/internal/core"
	"recipe/internal/protocols/raft"
)

// Span kinds recorded around protocol calls.
const (
	spanSubmit uint8 = iota
	spanHandle
	spanTick
	spanFlush
	spanCleanRead
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"submit", "handle", "tick", "flush", "clean-read"}

// span is one protocol call on one replica's event loop. env is the part of
// it spent inside the wrapped Env's Send/Broadcast/Reply, the layers below
// the protocol; dur-env is the protocol's self time.
type span struct {
	kind     uint8
	node     uint8
	start    time.Duration // since the tracer's epoch
	dur, env time.Duration
	client   string // Submit only: the command's (ClientID, Seq)
	seq      uint64
}

// rootSpan is one client operation, keyed by its session and the
// connection's request sequence number.
type rootSpan struct {
	session    int32
	seq        uint64
	send, done time.Time
}

// tracer owns the spans and counters of one traced cluster. Recording is
// switched on only for the measured phases.
type tracer struct {
	epoch time.Time
	seed  int64
	on    atomic.Bool

	mu    sync.Mutex
	nodes []*tracedRaft
	bad   string // first wrapper fault: a missing optional interface

	elections                  atomic.Int64
	aeMsgs, aeEntries          atomic.Int64
	sends, broadcasts, replies atomic.Int64
	envNs                      atomic.Int64
	kindCalls                  [numSpanKinds]atomic.Int64
	kindNs                     [numSpanKinds]atomic.Int64
}

func newTracer(seed int64) *tracer { return &tracer{epoch: time.Now(), seed: seed} }

// factory builds each replica's protocol the way the harness does (same
// per-replica Raft seed as single-group node n<i+1>), wrapped for tracing.
func (t *tracer) factory(replica int) core.Protocol {
	id := fmt.Sprintf("n%d", replica+1)
	p := &tracedRaft{
		inner: raft.New(t.seed + int64(len(id)*31+int(id[len(id)-1]))),
		t:     t,
		node:  uint8(replica),
	}
	t.mu.Lock()
	t.nodes = append(t.nodes, p)
	t.mu.Unlock()
	return p
}

func (t *tracer) fail(msg string) {
	t.mu.Lock()
	if t.bad == "" {
		t.bad = msg
	}
	t.mu.Unlock()
}

// tracedRaft wraps a Raft replica. It implements exactly the optional
// protocol interfaces Raft implements (checkWrapper proves it), so the
// node's type assertions take the same paths as for a bare Raft.
type tracedRaft struct {
	inner *raft.Raft
	t     *tracer
	node  uint8

	// Touched only from the replica's event loop, inside protocol calls.
	inEnv     time.Duration
	wasLeader bool

	mu    sync.Mutex
	spans []span
}

var (
	_ core.Protocol     = (*tracedRaft)(nil)
	_ core.Snapshotter  = (*tracedRaft)(nil)
	_ core.BatchFlusher = (*tracedRaft)(nil)
	_ core.CleanReader  = (*tracedRaft)(nil)
)

// checkWrapper fails unless the wrapper and a bare Raft agree on every
// optional interface the node and the harness look for by type assertion.
func checkWrapper() error {
	var bare core.Protocol = raft.New(0)
	var wrapped core.Protocol = &tracedRaft{inner: raft.New(0)}
	has := func(p core.Protocol) [4]bool {
		_, a := p.(core.Snapshotter)
		_, b := p.(core.StateSidecar)
		_, c := p.(core.BatchFlusher)
		_, d := p.(core.CleanReader)
		return [4]bool{a, b, c, d}
	}
	if hb, hw := has(bare), has(wrapped); hb != hw {
		return fmt.Errorf("protocol wrapper optional interfaces %v differ from raft's %v (Snapshotter, StateSidecar, BatchFlusher, CleanReader)", hw, hb)
	}
	return nil
}

func (p *tracedRaft) Name() string        { return p.inner.Name() }
func (p *tracedRaft) Status() core.Status { return p.inner.Status() }

func (p *tracedRaft) Init(env core.Env) {
	re, okR := env.(core.ReadEnv)
	pe, okP := env.(core.PhaseEnv)
	if !okR || !okP {
		p.t.fail(fmt.Sprintf(": node Env implements ReadEnv=%v PhaseEnv=%v; the wrapper forwards only both", okR, okP))
	}
	p.inner.Init(&tracedEnv{Env: env, ReadEnv: re, PhaseEnv: pe, p: p})
	p.wasLeader = p.inner.Status().IsCoordinator
}

func (p *tracedRaft) Submit(cmd core.Command) {
	start := p.begin()
	p.inner.Submit(cmd)
	p.end(spanSubmit, start, cmd.ClientID, cmd.Seq)
}

func (p *tracedRaft) Handle(from string, m *core.Wire) {
	start := p.begin()
	p.inner.Handle(from, m)
	p.end(spanHandle, start, "", 0)
}

func (p *tracedRaft) Tick() {
	start := p.begin()
	p.inner.Tick()
	p.end(spanTick, start, "", 0)
}

func (p *tracedRaft) FlushBatch() {
	start := p.begin()
	p.inner.FlushBatch()
	p.end(spanFlush, start, "", 0)
}

func (p *tracedRaft) ServeCleanRead(cmd core.Command) bool {
	start := p.begin()
	ok := p.inner.ServeCleanRead(cmd)
	p.end(spanCleanRead, start, cmd.ClientID, cmd.Seq)
	return ok
}

func (p *tracedRaft) SnapshotIndex() uint64        { return p.inner.SnapshotIndex() }
func (p *tracedRaft) InstallSnapshot(index uint64) { p.inner.InstallSnapshot(index) }

func (p *tracedRaft) begin() time.Time {
	p.inEnv = 0
	return time.Now()
}

func (p *tracedRaft) end(kind uint8, start time.Time, client string, seq uint64) {
	dur := time.Since(start)
	leader := p.inner.Status().IsCoordinator
	became := leader && !p.wasLeader
	p.wasLeader = leader
	t := p.t
	if !t.on.Load() {
		return
	}
	if became {
		t.elections.Add(1)
	}
	t.envNs.Add(int64(p.inEnv))
	t.kindCalls[kind].Add(1)
	t.kindNs[kind].Add(int64(dur))
	p.mu.Lock()
	p.spans = append(p.spans, span{kind: kind, node: p.node, start: start.Sub(t.epoch), dur: dur, env: p.inEnv, client: client, seq: seq})
	p.mu.Unlock()
}

// tracedEnv forwards the node's Env, ReadEnv and PhaseEnv, and counts and
// times the calls that leave the protocol.
type tracedEnv struct {
	core.Env
	core.ReadEnv
	core.PhaseEnv
	p *tracedRaft
}

func (e *tracedEnv) count(m *core.Wire, copies int64) {
	if m.Kind == raft.KindAppendEntries {
		e.p.t.aeMsgs.Add(copies)
		e.p.t.aeEntries.Add(copies * int64(len(m.Cmds)))
	}
}

func (e *tracedEnv) Send(to string, m *core.Wire) {
	if e.p.t.on.Load() {
		e.p.t.sends.Add(1)
		e.count(m, 1)
	}
	s := time.Now()
	e.Env.Send(to, m)
	e.p.inEnv += time.Since(s)
}

func (e *tracedEnv) Broadcast(m *core.Wire) {
	if e.p.t.on.Load() {
		e.p.t.broadcasts.Add(1)
		e.count(m, int64(len(e.Env.Peers())-1))
	}
	s := time.Now()
	e.Env.Broadcast(m)
	e.p.inEnv += time.Since(s)
}

func (e *tracedEnv) Reply(cmd core.Command, r core.Result) {
	if e.p.t.on.Load() {
		e.p.t.replies.Add(1)
	}
	s := time.Now()
	e.Env.Reply(cmd, r)
	e.p.inEnv += time.Since(s)
}

// counters is a snapshot of the tracer's counters.
type counters struct {
	calls, elections, aeMsgs, aeEntries, sends, broadcasts, replies int64
	step, env                                                       time.Duration
}

func (t *tracer) counters() counters {
	c := counters{
		elections: t.elections.Load(),
		aeMsgs:    t.aeMsgs.Load(), aeEntries: t.aeEntries.Load(),
		sends: t.sends.Load(), broadcasts: t.broadcasts.Load(), replies: t.replies.Load(),
		env: time.Duration(t.envNs.Load()),
	}
	for k := range t.kindCalls {
		c.calls += t.kindCalls[k].Load()
		c.step += time.Duration(t.kindNs[k].Load())
	}
	return c
}

// writeSpans writes every recorded span, protocol and client, as CSV:
// kind,node,start_ns,dur_ns,env_ns,client,seq. Client root spans use the
// node column for the connection and the client column for the session.
func (t *tracer) writeSpans(path string, logs []*connLog) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o750); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,node,start_ns,dur_ns,env_ns,client,seq")
	n := 0
	for ci, lg := range logs {
		for _, r := range lg.roots {
			fmt.Fprintf(w, "client,%d,%d,%d,0,session-%d,%d\n", ci, r.send.Sub(t.epoch), r.done.Sub(r.send), r.session, r.seq)
			n++
		}
	}
	t.mu.Lock()
	nodes := append([]*tracedRaft(nil), t.nodes...)
	t.mu.Unlock()
	for _, p := range nodes {
		p.mu.Lock()
		for _, s := range p.spans {
			fmt.Fprintf(w, "%s,n%d,%d,%d,%d,%s,%d\n", spanNames[s.kind], s.node+1, s.start, s.dur, s.env, s.client, s.seq)
			n++
		}
		p.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return n, err
	}
	return n, f.Close()
}
