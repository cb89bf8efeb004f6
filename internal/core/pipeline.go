package core

import (
	"runtime"
	"sync"
	"time"

	"recipe/internal/authn"
	"recipe/internal/bufpool"
	"recipe/internal/netstack"
)

// The staged data plane. The node's protocol loop stays single-threaded —
// every Protocol and Env call still happens on one goroutine — but the
// expensive per-message transforms around it run concurrently:
//
//	            ┌─ ingress worker ─┐
//	 transport ─┤  (verify+decrypt ├─ verified ─→ protocol loop
//	 dispatcher └─  +wire decode)  ┘   (chan)          │
//	                                                   ├─→ commit stage
//	            ┌─ egress worker ──┐                   │   (WAL fsync, then
//	 loop ──────┤  (seal+encode    ├─→ transport       │    client replies)
//	 (batches)  └─  +per-peer send)┘                   ↓
//
// Ordering contract: the dispatcher routes every frame by its channel name
// to a fixed ingress worker, so one worker owns each channel and Verify runs
// in arrival order — per-channel sequence monotonicity holds. Native
// (unshielded) frames carry no envelope: the dispatcher decodes them itself
// and hands them straight to the verified queue, in arrival order. Egress
// jobs route by peer, so one worker owns each outbound channel's seals and
// sends. The commit stage receives one request per loop iteration in order,
// fsyncs (seal.Log.Sync, off the log's lock so appends keep flowing), and
// only then releases that iteration's client replies — an ack never
// outruns the fsync backing it.
//
// Reconfiguration and teardown: SetView/SetEpoch take the shielder's channel
// table lock exclusively, so a configuration move is atomic with respect to
// every in-flight stage verify/seal; stale envelopes already queued in a
// stage are rejected afterwards by the very epoch checks that always guarded
// the loop. Stage goroutines stop on stopCh and are joined before the node's
// doneCh closes, so Stop and Crash never race an in-flight stage.

// Stage queue bounds. Producers block (counted in Stats.PipelineStalls) when
// a stage queue is full — backpressure, not shedding: these are verified or
// protocol-produced messages, dropping them would only trigger retransmits.
const (
	ingressQueueDepth  = 256
	verifiedQueueDepth = 1024
	egressQueueDepth   = 64
	commitQueueDepth   = 16
)

// maxPipelineWorkers caps the worker count; beyond ~8 the single-threaded
// protocol loop is the bottleneck anyway.
const maxPipelineWorkers = 8

// pipelineWorkerCount is the per-stage worker count: one per usable CPU,
// capped at maxPipelineWorkers.
func pipelineWorkerCount() int {
	return max(1, min(runtime.GOMAXPROCS(0), maxPipelineWorkers))
}

// ingressFrame is one decoded envelope travelling dispatcher → worker. The
// envelope aliases the packet buffer (zero-copy decode), which stays alive
// for as long as anything — including a channel's future buffer — holds it.
type ingressFrame struct {
	from string
	env  authn.Envelope
}

// verifiedMsg is one verified, decoded message travelling worker → loop.
// enq stamps the handoff when telemetry is on (zero otherwise); the loop
// records the dwell into the queue-wait phase histogram. The message is
// value-passed through the channel, so the stamp costs no allocation.
type verifiedMsg struct {
	from string
	w    *Wire
	enq  time.Time
}

// egressJob is one peer's coalesced batch travelling loop → egress worker.
// The items (and their pooled payload buffers) are owned by the worker from
// handoff until it recycles them.
type egressJob struct {
	to    string
	items []authn.BatchItem
}

// commitReq is one loop iteration's durability work travelling loop →
// commit stage: fsync everything appended, then send the parked replies.
type commitReq struct {
	replies []deferredReply
}

// PipelineDepths is an instantaneous snapshot of the staged plane's queue
// depths (gauges, not counters).
type PipelineDepths struct {
	// Ingress is the total backlog across ingress worker queues (decoded
	// envelopes awaiting verification).
	Ingress int
	// Verified is the backlog of verified messages awaiting the protocol
	// loop.
	Verified int
	// Egress is the total backlog across egress worker queues (batches
	// awaiting seal+send).
	Egress int
	// Commit is the backlog of loop iterations awaiting their group-commit
	// fsync.
	Commit int
}

// pipeline owns the stage goroutines and queues of one node's staged plane.
type pipeline struct {
	n       *Node
	workers int

	ingress  []chan ingressFrame
	verified chan verifiedMsg
	egress   []chan egressJob
	commit   chan commitReq

	wg sync.WaitGroup
}

func newPipeline(n *Node, workers int) *pipeline {
	p := &pipeline{
		n:        n,
		workers:  workers,
		ingress:  make([]chan ingressFrame, workers),
		verified: make(chan verifiedMsg, verifiedQueueDepth),
		egress:   make([]chan egressJob, workers),
	}
	for i := range p.ingress {
		p.ingress[i] = make(chan ingressFrame, ingressQueueDepth)
	}
	for i := range p.egress {
		p.egress[i] = make(chan egressJob, egressQueueDepth)
	}
	if n.wal != nil {
		p.commit = make(chan commitReq, commitQueueDepth)
	}
	return p
}

// start launches the stage goroutines. Called from run() before the loop.
func (p *pipeline) start() {
	for _, ch := range p.ingress {
		p.wg.Add(1)
		go p.ingressWorker(ch)
	}
	for _, ch := range p.egress {
		p.wg.Add(1)
		go p.egressWorker(ch)
	}
	if p.commit != nil {
		p.wg.Add(1)
		go p.committer()
	}
	p.wg.Add(1)
	go p.dispatch()
}

// shutdown stops and joins every stage goroutine. Called from run()'s defer,
// after the loop exited (stopCh is closed) and before doneCh closes: once
// shutdown returns, no stage touches the shielder, the transport, or the WAL
// again, so Stop can close the WAL (or Crash abandon it) race-free.
func (p *pipeline) shutdown() {
	if p.commit != nil {
		// The loop has exited: it is the only commit producer, so closing is
		// safe, and the committer drains queued fsyncs before exiting —
		// replies whose fsync completes still go out, ones whose fsync never
		// ran are dropped with the node (clients retry elsewhere).
		close(p.commit)
	}
	// Ingress workers, egress workers, and the dispatcher exit via stopCh
	// (closed before run returned). Frames and jobs still queued are
	// abandoned — indistinguishable from packets lost by the network.
	p.wg.Wait()
}

// depths implements Node.PipelineDepths.
func (p *pipeline) depths() PipelineDepths {
	var d PipelineDepths
	for _, ch := range p.ingress {
		d.Ingress += len(ch)
	}
	d.Verified = len(p.verified)
	for _, ch := range p.egress {
		d.Egress += len(ch)
	}
	if p.commit != nil {
		d.Commit = len(p.commit)
	}
	return d
}

// stageHash routes a name (channel or peer) to a worker index. FNV-1a:
// cheap, allocation-free, stable.
func stageHash(name string, workers int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return int(h % uint32(workers))
}

// dispatch is the transport reader: it splits coalesced packets, decodes
// envelopes (zero-copy header parse — the cheap part), and routes each by
// channel name to the worker owning that channel. Single-threaded, so frames
// of one channel reach their worker in arrival order. Native frames decode
// here and skip the workers.
func (p *pipeline) dispatch() {
	defer p.wg.Done()
	n := p.n
	for {
		select {
		case <-n.stopCh:
			return
		case pkt, ok := <-n.tr.Inbox():
			if !ok {
				return
			}
			frames, multi, err := netstack.SplitFrames(pkt.Data)
			if err != nil {
				n.stats.DropMalformed.Add(1)
				continue
			}
			if !multi {
				p.dispatchFrame(pkt.From, pkt.Data)
				continue
			}
			for _, f := range frames {
				p.dispatchFrame(pkt.From, f)
			}
		}
	}
}

func (p *pipeline) dispatchFrame(from string, data []byte) {
	n := p.n
	if !n.cfg.Shielded {
		w, err := DecodeWire(data)
		if err != nil {
			n.stats.DropMalformed.Add(1)
			return
		}
		p.deliver(from, w)
		return
	}
	var env authn.Envelope
	if err := authn.DecodeEnvelopeInto(&env, data); err != nil {
		n.stats.DropMalformed.Add(1)
		return
	}
	ch := p.ingress[stageHash(env.Channel, p.workers)]
	f := ingressFrame{from: from, env: env}
	select {
	case ch <- f:
	default:
		n.stats.PipelineStalls.Add(1)
		n.trace("stall", "ingress queue full")
		select {
		case ch <- f:
		case <-n.stopCh:
		}
	}
}

// ingressWorker verifies and decodes the frames of the channels it owns,
// handing delivered messages to the loop in per-channel order. Verify's
// returned slice is the channel's reusable scratch — safe here because this
// worker is the only goroutine that Verifies these channels, and it consumes
// the slice before its next Verify.
func (p *pipeline) ingressWorker(ch chan ingressFrame) {
	defer p.wg.Done()
	n := p.n
	for {
		select {
		case <-n.stopCh:
			return
		case f := <-ch:
			n.ensureChannel(f.env.Channel)
			var verifyStart time.Time
			if n.phase.ingressVerify != nil {
				verifyStart = time.Now()
			}
			status, delivered, err := n.shielder.Verify(f.env)
			if !verifyStart.IsZero() {
				n.phase.ingressVerify.RecordSince(verifyStart)
			}
			if err != nil {
				n.countVerifyError(f.env.Channel, f.from, err)
				continue
			}
			if status == authn.Buffered {
				n.stats.Buffered.Add(1)
				continue
			}
			for _, d := range delivered {
				if w, ok := n.decodeDelivered(d); ok && !p.deliver(w.From, w) {
					return
				}
			}
		}
	}
}

// deliver hands one verified message to the protocol loop, blocking while
// the verified queue is full. It returns false when the node stopped first.
func (p *pipeline) deliver(from string, w *Wire) bool {
	n := p.n
	m := verifiedMsg{from: from, w: w}
	if n.phase.queueWait != nil {
		m.enq = time.Now()
	}
	select {
	case p.verified <- m:
		return true
	default:
	}
	n.stats.PipelineStalls.Add(1)
	n.trace("stall", "verified queue full")
	select {
	case p.verified <- m:
		return true
	case <-n.stopCh:
		return false
	}
}

// submitEgress hands one peer's batch to the worker owning that peer.
// Callable from the loop and from off-loop senders (join announcements,
// recovery) through flushOutbound.
func (p *pipeline) submitEgress(job egressJob) {
	n := p.n
	ch := p.egress[stageHash(job.to, p.workers)]
	select {
	case ch <- job:
	default:
		n.stats.PipelineStalls.Add(1)
		n.trace("stall", "egress queue full")
		select {
		case ch <- job:
		case <-n.stopCh:
			// Node stopping: the job will never run; recycle its buffers.
			for i := range job.items {
				bufpool.Put(job.items[i].Payload)
			}
			n.releaseItems(job.items)
		}
	}
}

// egressWorker seals, encodes, transmits, and recycles the batches of the
// peers it owns. One worker per peer keeps each outbound channel's counter
// order equal to its wire order.
func (p *pipeline) egressWorker(ch chan egressJob) {
	defer p.wg.Done()
	n := p.n
	for {
		select {
		case <-n.stopCh:
			return
		case job := <-ch:
			n.sealAndSend(job.to, job.items)
			n.releaseItems(job.items)
			n.flushPeer(job.to)
		}
	}
}

// submitCommit hands one loop iteration's durability work to the commit
// stage. Only the protocol loop calls this, so order of requests equals
// loop-iteration order.
func (p *pipeline) submitCommit(req commitReq) {
	n := p.n
	select {
	case p.commit <- req:
	default:
		n.stats.PipelineStalls.Add(1)
		n.trace("stall", "commit queue full")
		select {
		case p.commit <- req:
		case <-n.stopCh:
			// Node stopping before the fsync could be queued: the replies
			// must never be sent (their writes may not be durable).
			n.putReplySlice(req.replies)
		}
	}
}

// committer is the commit stage: per loop iteration, one overlapped WAL
// fsync (appends keep flowing meanwhile) followed by that iteration's client
// replies. A failed fsync crash-stops the node — the replies are withheld,
// because their writes are not durable.
func (p *pipeline) committer() {
	defer p.wg.Done()
	n := p.n
	for req := range p.commit {
		if err := n.wal.Sync(); err != nil {
			n.cfg.Logf("node %s: wal sync failed, crash-stopping: %v", n.id, err)
			n.walBroken.Store(true)
			n.dumpTrace("wal sync failed")
			n.enclave.Crash()
		}
		if n.walBroken.Load() {
			n.putReplySlice(req.replies) // withheld: writes are not durable
			continue
		}
		for i := range req.replies {
			n.sendToClientNow(req.replies[i].cmd, req.replies[i].w)
		}
		n.putReplySlice(req.replies)
	}
}
