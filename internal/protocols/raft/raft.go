package raft

import (
	"fmt"
	"math/rand"
	"time"

	"recipe/internal/codec"
	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/telemetry"
)

// Message kinds.
const (
	// KindAppendEntries replicates log entries (and acts as heartbeat).
	KindAppendEntries = core.KindProtocolBase + iota
	// KindAppendResp acknowledges an AppendEntries.
	KindAppendResp
	// KindRequestVote solicits a vote for a new term.
	KindRequestVote
	// KindVoteResp answers a vote request.
	KindVoteResp
)

// role is a Raft server role.
type role int

const (
	follower role = iota + 1
	candidate
	leader
)

// Tuning in ticks (the Recipe layer drives Tick from the trusted clock).
const (
	heartbeatTicks  = 2
	electionMin     = 10
	electionJitter  = 10
	maxEntriesPerAE = 64
)

// Log-compaction tuning: once the in-memory log exceeds compactThreshold
// entries, the applied prefix is discarded down to compactKeep retained
// entries. The retained margin comfortably covers the consistency-check
// backtracking window (followers hint with their commit index, which is
// never more than a few batches behind their applied index).
const (
	compactThreshold = 16384
	compactKeep      = 4096
)

// entry is one log slot.
type entry struct {
	term uint64
	cmd  core.Command
}

// Raft is one Raft server. All methods run on the node event loop.
type Raft struct {
	env core.Env
	// renv is the optional read-path extension of env: lease-gated local
	// reads and read-path accounting. Nil with plain Envs (unit-test fakes),
	// which keeps the legacy always-local read behaviour.
	renv  core.ReadEnv
	id    string
	peers []string
	rng   *rand.Rand

	role     role
	term     uint64
	votedFor string
	leader   string

	// The log starts after a compacted prefix: log[i] has index base+i+1.
	// baseTerm is the term of the entry at index base (0 = unknown, after a
	// snapshot install — the compacted prefix is committed state and is
	// trusted without a term check).
	log         []entry
	base        uint64
	baseTerm    uint64
	commitIndex uint64
	lastApplied uint64
	// barrier is the index of this leader's term-start no-op entry. Local
	// reads are only served once it has applied — before that, entries
	// committed in prior terms may not have reached this replica's store.
	barrier uint64

	nextIndex  map[string]uint64
	matchIndex map[string]uint64
	votes      map[string]bool
	// leaseAcks collects the distinct followers that responded in the
	// current term since the last lease renewal. The leader's own holder-
	// side lease renews only when a QUORUM of them has responded — renewing
	// on any single response would let a minority-partitioned leader keep
	// its lease (and serve stale local reads) while the majority elects and
	// commits under a successor.
	leaseAcks map[string]bool
	// inflight marks followers with an unacknowledged AppendEntries. New
	// submissions do not trigger extra rounds while one is outstanding —
	// entries accumulate and ship in the next batch (the paper's batching
	// optimization; self-clocking pipeline per follower).
	inflight map[string]bool
	// sentIdx is the highest log index shipped to each follower since the
	// last election or NACK. An OK ack below it is stale — a later
	// AppendEntries already carries the entries past it — so the ack only
	// records progress: it neither clears inflight nor streams. Streaming on
	// a stale ack would re-ship the in-flight suffix, and each heartbeat
	// would leave one more self-sustaining stream behind.
	sentIdx map[string]uint64
	// dirty marks entries appended by Submit since the last FlushBatch. The
	// node event loop drains a burst of client commands and then calls
	// FlushBatch once, so the whole burst replicates in a single
	// AppendEntries per follower instead of one per command.
	dirty bool

	electionElapsed  int
	electionTimeout  int
	heartbeatElapsed int

	pending map[uint64]core.Command // log index -> client command awaiting commit
	// commitLag, when the env provides phase telemetry, times leader
	// append → commit apply per pending command; pendingAt holds the
	// append stamps. Steady-state delete/reinsert keeps the map
	// allocation-free, like pending itself.
	commitLag *telemetry.Histogram
	pendingAt map[uint64]time.Time
}

var (
	_ core.Protocol     = (*Raft)(nil)
	_ core.Snapshotter  = (*Raft)(nil)
	_ core.BatchFlusher = (*Raft)(nil)
	_ core.CleanReader  = (*Raft)(nil)
)

// New creates a Raft instance. Seed randomizes election timeouts; give each
// node a distinct seed.
func New(seed int64) *Raft {
	return &Raft{
		rng:      rand.New(rand.NewSource(seed)),
		pending:  make(map[uint64]core.Command),
		inflight: make(map[string]bool),
	}
}

// Name implements core.Protocol.
func (r *Raft) Name() string { return "raft" }

// Init implements core.Protocol.
func (r *Raft) Init(env core.Env) {
	r.env = env
	r.renv, _ = env.(core.ReadEnv)
	if pe, ok := env.(core.PhaseEnv); ok {
		r.commitLag = pe.PhaseHistogram(core.MetricPhaseRaftCommitLag)
		if r.commitLag != nil {
			r.pendingAt = make(map[uint64]time.Time)
		}
	}
	r.id = env.ID()
	r.peers = env.Peers()
	r.role = follower
	r.resetElectionTimer()
}

// Status implements core.Protocol.
func (r *Raft) Status() core.Status {
	return core.Status{
		Leader:        r.leader,
		IsCoordinator: r.role == leader,
		Term:          r.term,
	}
}

// Submit implements core.Protocol. Only called when this node coordinates.
func (r *Raft) Submit(cmd core.Command) {
	if r.role != leader {
		r.env.Reply(cmd, core.Result{Err: "not leader"})
		return
	}
	if cmd.Op == core.OpGet && r.lastApplied >= r.barrier {
		// Linearizable local read at the leader: the term-start barrier has
		// applied (so every write committed in prior terms is in the local
		// store), every entry committed in this term is applied at commit
		// time, and the trusted lease ensures leadership freshness. Under
		// ReadLeaderOnly the read always takes the log; with an expired
		// lease it falls back to the log (a deposed leader must not answer).
		if r.renv == nil {
			r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
			return
		}
		if r.renv.ReadPolicy() != core.ReadLeaderOnly {
			if r.renv.HoldsLeaderLease() {
				r.renv.CountRead(core.ReadPathLocal)
				r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
				return
			}
			r.renv.CountRead(core.ReadPathFallback)
		}
	}
	// Writes — and reads arriving before the term barrier applies, under
	// ReadLeaderOnly, or without a fresh lease — go through the log; OpGet
	// entries read the store at apply time.
	r.log = append(r.log, entry{term: r.term, cmd: cmd})
	idx := r.lastIndex()
	r.pending[idx] = cmd
	if r.pendingAt != nil {
		r.pendingAt[idx] = time.Now()
	}
	r.matchIndex[r.id] = idx
	// Replication is deferred to FlushBatch so commands submitted in the
	// same event-loop iteration batch into one AppendEntries.
	r.dirty = true
}

// FlushBatch implements core.BatchFlusher: it replicates everything Submit
// appended during the current event-loop iteration in one AppendEntries per
// follower (followers with an outstanding AppendEntries stay self-clocked:
// their entries ride the response-triggered next batch).
func (r *Raft) FlushBatch() {
	if !r.dirty || r.role != leader {
		return
	}
	r.dirty = false
	for _, p := range r.peers {
		if p != r.id && !r.inflight[p] {
			r.sendAppend(p)
		}
	}
	// A single-replica group has no followers to ack: its own matchIndex is
	// the quorum, so commitment must advance here. No-op with followers
	// (their matchIndex has not moved yet).
	r.advanceCommit()
}

// Handle implements core.Protocol.
func (r *Raft) Handle(from string, m *core.Wire) {
	switch m.Kind {
	case KindAppendEntries:
		r.onAppendEntries(from, m)
	case KindAppendResp:
		r.onAppendResp(from, m)
	case KindRequestVote:
		r.onRequestVote(from, m)
	case KindVoteResp:
		r.onVoteResp(from, m)
	}
}

// Tick implements core.Protocol.
func (r *Raft) Tick() {
	if r.role == leader {
		r.heartbeatElapsed++
		if r.heartbeatElapsed >= heartbeatTicks {
			r.heartbeatElapsed = 0
			r.replicateAll()
		}
		return
	}
	r.electionElapsed++
	if r.electionElapsed < r.electionTimeout {
		return
	}
	// The trusted lease is the failure detector: while verified leader
	// traffic keeps the lease alive, no election starts even if ticks
	// accumulated (e.g. under scheduling hiccups).
	if r.leader != "" && r.env.LeaderAlive() {
		r.electionElapsed = 0
		return
	}
	r.startElection()
}

func (r *Raft) resetElectionTimer() {
	r.electionElapsed = 0
	r.electionTimeout = electionMin + r.rng.Intn(electionJitter)
}

func (r *Raft) startElection() {
	r.role = candidate
	r.term++
	r.votedFor = r.id
	r.leader = ""
	r.votes = map[string]bool{r.id: true}
	r.resetElectionTimer()
	lastIdx, lastTerm := r.lastLog()
	r.env.Broadcast(&core.Wire{
		Kind:  KindRequestVote,
		Term:  r.term,
		Index: lastIdx,
		TS:    kvstore.Version{TS: lastTerm},
	})
	r.maybeWinElection()
}

// stepDown moves to follower in a (possibly newer) term.
func (r *Raft) stepDown(term uint64) {
	if term > r.term {
		r.term = term
		r.votedFor = ""
	}
	if r.role != follower {
		r.role = follower
	}
	r.resetElectionTimer()
}

// lastIndex is the index of the newest log entry (or the compaction base if
// the log is empty).
func (r *Raft) lastIndex() uint64 { return r.base + uint64(len(r.log)) }

// termAt returns the term of the entry at idx, if known. Indices at or
// below base are compacted; base itself reports baseTerm.
func (r *Raft) termAt(idx uint64) (uint64, bool) {
	switch {
	case idx == r.base:
		return r.baseTerm, true
	case idx > r.base && idx <= r.lastIndex():
		return r.log[idx-r.base-1].term, true
	default:
		return 0, false
	}
}

// entryAt returns the entry at idx, which must be in (base, lastIndex].
func (r *Raft) entryAt(idx uint64) entry { return r.log[idx-r.base-1] }

func (r *Raft) lastLog() (idx, term uint64) {
	idx = r.lastIndex()
	term, _ = r.termAt(idx)
	return idx, term
}

func (r *Raft) onRequestVote(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
	}
	grant := false
	if m.Term == r.term && (r.votedFor == "" || r.votedFor == from) {
		lastIdx, lastTerm := r.lastLog()
		candTerm := m.TS.TS
		upToDate := candTerm > lastTerm || (candTerm == lastTerm && m.Index >= lastIdx)
		if upToDate {
			grant = true
			r.votedFor = from
			r.resetElectionTimer()
		}
	}
	r.env.Send(from, &core.Wire{Kind: KindVoteResp, Term: r.term, OK: grant})
}

func (r *Raft) onVoteResp(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		return
	}
	if r.role != candidate || m.Term != r.term || !m.OK {
		return
	}
	r.votes[from] = true
	r.maybeWinElection()
}

func (r *Raft) maybeWinElection() {
	if r.role != candidate || len(r.votes) < r.quorum() {
		return
	}
	r.role = leader
	r.leader = r.id
	r.heartbeatElapsed = 0
	r.nextIndex = make(map[string]uint64, len(r.peers))
	r.matchIndex = make(map[string]uint64, len(r.peers))
	r.inflight = make(map[string]bool, len(r.peers))
	r.sentIdx = make(map[string]uint64, len(r.peers))
	r.leaseAcks = make(map[string]bool, len(r.peers))
	lastIdx, _ := r.lastLog()
	for _, p := range r.peers {
		r.nextIndex[p] = lastIdx + 1
		r.matchIndex[p] = 0
	}
	// Term-start no-op barrier (Raft §8): committing an entry of the new
	// term also commits — and applies — every entry inherited from prior
	// terms, which advanceCommit cannot count directly. Until the barrier
	// applies, local reads detour through the log (see Submit), so a write
	// acknowledged by a crashed leader can never be invisibly lost.
	r.log = append(r.log, entry{term: r.term})
	r.barrier = r.lastIndex()
	r.matchIndex[r.id] = r.barrier
	r.env.Logf("raft %s: leader of term %d", r.id, r.term)
	r.replicateAll()
}

func (r *Raft) quorum() int { return len(r.peers)/2 + 1 }

// replicateAll sends AppendEntries to every follower from its nextIndex,
// in flight or not: the heartbeat is what recovers a lost AppendEntries (or
// its lost ack), since the follower stays marked in flight until acked.
func (r *Raft) replicateAll() {
	r.dirty = false // every follower is being sent its pending entries now
	for _, p := range r.peers {
		if p == r.id {
			continue
		}
		r.sendAppend(p)
	}
	r.advanceCommit() // single-replica groups commit on their own match
}

func (r *Raft) sendAppend(to string) {
	next := r.nextIndex[to]
	if next <= r.base {
		// Entries at or below base are compacted. A follower that far behind
		// recovers through Recipe's state transfer (SyncFromFloor installs a
		// snapshot); meanwhile probe from just past the base.
		next = r.base + 1
		r.nextIndex[to] = next
	}
	prevIdx := next - 1
	prevTerm, _ := r.termAt(prevIdx)
	var cmds []core.Command
	var terms []uint64
	for i := next; i <= r.lastIndex() && len(cmds) < maxEntriesPerAE; i++ {
		e := r.entryAt(i)
		cmds = append(cmds, e.cmd)
		terms = append(terms, e.term)
	}
	r.inflight[to] = true
	if last := prevIdx + uint64(len(cmds)); last > r.sentIdx[to] {
		r.sentIdx[to] = last
	}
	r.env.Send(to, &core.Wire{
		Kind:   KindAppendEntries,
		Term:   r.term,
		Index:  prevIdx,
		TS:     kvstore.Version{TS: prevTerm},
		Commit: r.commitIndex,
		Cmds:   cmds,
		Value:  encodeTerms(terms),
	})
}

func (r *Raft) onAppendEntries(from string, m *core.Wire) {
	if m.Term < r.term {
		r.env.Send(from, &core.Wire{Kind: KindAppendResp, Term: r.term, OK: false})
		return
	}
	r.stepDown(m.Term)
	r.leader = from
	r.resetElectionTimer()

	// The terms blob must carry exactly one term per entry. A short blob
	// used to append fewer entries than matchIdx below counts, so the
	// commit index overran the log and applying it panicked. A malformed
	// AppendEntries is dropped unanswered: a NACK would make the leader
	// reship at once and ping-pong, whereas silence leaves the retry to the
	// next heartbeat.
	terms, err := decodeTerms(m.Value, len(m.Cmds))
	if err != nil {
		r.env.Logf("raft %s: dropping AppendEntries from %s: %v", r.id, from, err)
		return
	}

	prevIdx := m.Index
	prevTerm := m.TS.TS
	consistent := prevIdx <= r.base // the compacted prefix is committed state
	if !consistent {
		if t, ok := r.termAt(prevIdx); ok && t == prevTerm {
			consistent = true
		}
	}
	if !consistent {
		// Log inconsistency: ask the leader to back up.
		r.env.Send(from, &core.Wire{
			Kind: KindAppendResp, Term: r.term, OK: false,
			Index: r.commitIndex, // safe hint: everything up to commit matches
		})
		return
	}

	for i, cmd := range m.Cmds {
		idx := prevIdx + uint64(i) + 1
		if idx <= r.base {
			continue // covered by the compacted (committed) prefix
		}
		if idx <= r.lastIndex() {
			if r.entryAt(idx).term == terms[i] {
				continue // already have it
			}
			r.log = r.log[:idx-r.base-1] // conflict: truncate suffix
		}
		r.log = append(r.log, entry{term: terms[i], cmd: cmd})
	}

	// Commit only up to the last entry verified against this leader
	// (prevIdx + the entries it just sent), never our own log tail: a
	// deposed leader rejoining as follower may still hold an unreplicated
	// suffix, and clamping to lastIndex would commit — apply, and ack via
	// pending[] — entries the cluster never accepted (§5.3's "index of
	// last new entry").
	matchIdx := prevIdx + uint64(len(m.Cmds))
	if m.Commit > r.commitIndex && matchIdx > r.commitIndex {
		r.commitIndex = min(m.Commit, matchIdx)
		r.applyCommitted()
	}
	r.env.Send(from, &core.Wire{Kind: KindAppendResp, Term: r.term, OK: true, Index: matchIdx})
}

func (r *Raft) onAppendResp(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		r.leader = ""
		return
	}
	if r.role != leader || m.Term != r.term {
		return
	}
	// Any same-term response (OK or not) proves this follower still treats
	// us as the term's leader. Once a quorum of distinct followers has
	// responded since the last renewal, the leader's own lease is fresh
	// again: a majority demonstrably cannot have elected a successor within
	// the window. Heartbeats every heartbeatTicks keep this alive under
	// pure-read load.
	if r.renv != nil {
		r.leaseAcks[from] = true
		if len(r.leaseAcks)+1 >= r.quorum() {
			r.renv.RenewLease()
			for p := range r.leaseAcks {
				delete(r.leaseAcks, p)
			}
		}
	}
	if !m.OK {
		// Back up nextIndex and retry (never below the compacted base).
		switch {
		case r.nextIndex[from] > m.Index+1:
			r.nextIndex[from] = m.Index + 1
		case r.nextIndex[from] > 1:
			r.nextIndex[from]--
		}
		if r.nextIndex[from] <= r.base {
			r.nextIndex[from] = r.base + 1
		}
		r.sentIdx[from] = 0 // everything past nextIndex is reshipped now
		r.sendAppend(from)
		return
	}
	if m.Index > r.matchIndex[from] {
		r.matchIndex[from] = m.Index
	}
	if m.Index+1 > r.nextIndex[from] {
		r.nextIndex[from] = m.Index + 1
	}
	r.advanceCommit()
	if m.Index < r.sentIdx[from] {
		return // stale: a later AppendEntries is still in flight
	}
	r.inflight[from] = false
	// Keep streaming if the follower is behind.
	if r.nextIndex[from] <= r.lastIndex() {
		r.sendAppend(from)
	}
}

// advanceCommit commits the highest index replicated on a quorum with an
// entry from the current term (Raft's commitment rule).
func (r *Raft) advanceCommit() {
	for idx := r.lastIndex(); idx > r.commitIndex && idx > r.base; idx-- {
		if r.entryAt(idx).term != r.term {
			break // only commit current-term entries by counting
		}
		count := 0
		for _, p := range r.peers {
			if r.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= r.quorum() {
			r.commitIndex = idx
			r.applyCommitted()
			// The commit index piggybacks on the next AppendEntries (batch
			// or heartbeat); followers apply shortly after. Clients are
			// answered from the leader's commit, so this costs no client
			// latency.
			break
		}
	}
}

// applyCommitted applies newly committed entries to the KV store and
// completes pending client commands.
func (r *Raft) applyCommitted() {
	for r.lastApplied < r.commitIndex {
		r.lastApplied++
		e := r.entryAt(r.lastApplied)
		res := applyCommand(r.env.Store(), e.cmd, r.lastApplied)
		if cmd, ok := r.pending[r.lastApplied]; ok {
			delete(r.pending, r.lastApplied)
			if r.pendingAt != nil {
				if at, stamped := r.pendingAt[r.lastApplied]; stamped {
					r.commitLag.RecordSince(at)
					delete(r.pendingAt, r.lastApplied)
				}
			}
			// A pending slot answers only its own command. After a
			// deposition the suffix this leader appended can be truncated
			// and the index re-filled by the new leader's entry; binding
			// that entry's result to the stale pending command would ack a
			// write the cluster never accepted. Silence is correct: the
			// client times out, retries, and the table dedups.
			if cmd.ClientID == e.cmd.ClientID && cmd.Seq == e.cmd.Seq {
				r.env.Reply(cmd, res)
			}
		}
	}
	r.maybeCompact()
}

// maybeCompact discards the applied log prefix once the log grows past
// compactThreshold, keeping compactKeep entries of margin. The leader only
// compacts below what every follower has acknowledged, so it never needs a
// compacted entry for a live follower; a dead follower recovers through
// state transfer plus snapshot install.
func (r *Raft) maybeCompact() {
	if len(r.log) < compactThreshold {
		return
	}
	limit := r.lastApplied
	if r.role == leader {
		for _, p := range r.peers {
			if p == r.id {
				continue
			}
			m := r.matchIndex[p]
			if m == 0 {
				return // a follower has acked nothing yet; keep everything
			}
			if m < limit {
				limit = m
			}
		}
	}
	if limit <= r.base+compactKeep {
		return
	}
	newBase := limit - compactKeep
	bt, ok := r.termAt(newBase)
	if !ok {
		return
	}
	r.log = append([]entry(nil), r.log[newBase-r.base:]...)
	r.base = newBase
	r.baseTerm = bt
}

// ServeCleanRead implements core.CleanReader: under ReadAnyClean a follower
// answers reads from its own store. A Raft follower's store only ever holds
// committed state — applyCommitted applies nothing past the commit index,
// and recovery restores committed mutations — so every local version is
// clean by construction. The answer may be stale relative to the leader's
// commit frontier; the client's session floor enforces monotonicity, which
// is exactly the relaxation ReadAnyClean advertises.
func (r *Raft) ServeCleanRead(cmd core.Command) bool {
	if cmd.Op != core.OpGet {
		return false
	}
	if r.renv != nil {
		r.renv.CountRead(core.ReadPathReplica)
	}
	r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
	return true
}

// LogLen reports the number of in-memory log entries (observability).
func (r *Raft) LogLen() int { return len(r.log) }

// Base reports the compaction base index (observability).
func (r *Raft) Base() uint64 { return r.base }

// SnapshotIndex implements core.Snapshotter.
func (r *Raft) SnapshotIndex() uint64 { return r.lastApplied }

// InstallSnapshot implements core.Snapshotter: the KV state transferred by
// Recipe's recovery covers everything up to index, so the log fast-forwards
// past it. Pending client commands at or below index were answered (or will
// be retried and deduplicated).
func (r *Raft) InstallSnapshot(index uint64) {
	if index <= r.base {
		return
	}
	if index <= r.lastIndex() {
		bt, _ := r.termAt(index)
		r.log = append([]entry(nil), r.log[index-r.base:]...)
		r.baseTerm = bt
	} else {
		r.log = nil
		r.baseTerm = 0 // unknown; the compacted prefix is trusted
	}
	r.base = index
	if r.commitIndex < index {
		r.commitIndex = index
	}
	if r.lastApplied < index {
		r.lastApplied = index
	}
	for idx := range r.pending {
		if idx <= index {
			delete(r.pending, idx)
		}
	}
	for idx := range r.pendingAt {
		if idx <= index {
			delete(r.pendingAt, idx)
		}
	}
}

// applyCommand executes one committed command against the store. The log
// index doubles as the version timestamp, preserving total order.
func applyCommand(store *kvstore.Store, cmd core.Command, idx uint64) core.Result {
	switch cmd.Op {
	case 0:
		// Term-start no-op barrier entries mutate nothing. Only the leader
		// constructs them (no client identity); an Op-0 command arriving
		// from an actual client is malformed, like any unknown op.
		if cmd.ClientID == "" && cmd.ClientAddr == "" {
			return core.Result{OK: true}
		}
		return core.Result{Err: "unknown op"}
	case core.OpPut:
		if err := store.WriteVersioned(cmd.Key, cmd.Value, kvstore.Version{TS: idx}); err != nil {
			return core.Result{Err: err.Error()}
		}
		return core.Result{OK: true, Version: kvstore.Version{TS: idx}}
	case core.OpDelete:
		// Deletes are replicated through the log like writes; the versioned
		// removal leaves a floor so stale writes cannot resurrect the key.
		if err := store.RemoveVersioned(cmd.Key, kvstore.Version{TS: idx}); err != nil {
			return core.Result{Err: err.Error()}
		}
		return core.Result{OK: true, Version: kvstore.Version{TS: idx}}
	case core.OpGet:
		return readLocal(store, cmd.Key)
	default:
		return core.Result{Err: "unknown op"}
	}
}

// readLocal serves a read from the local (integrity-checked) store.
func readLocal(store *kvstore.Store, key string) core.Result {
	v, ver, err := store.GetVersioned(key)
	if err != nil {
		return core.Result{Err: err.Error()}
	}
	return core.Result{OK: true, Value: v, Version: ver}
}

// encodeTerms serialises the per-entry terms of an AppendEntries as
// canonical varints (internal/codec), one per shipped command.
func encodeTerms(terms []uint64) []byte {
	buf := make([]byte, 0, len(terms))
	for _, t := range terms {
		buf = codec.AppendUvarint(buf, t)
	}
	return buf
}

// decodeTerms parses a terms blob that must hold exactly n terms and
// nothing after them.
func decodeTerms(data []byte, n int) ([]uint64, error) {
	r := codec.NewReader(data)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("raft: terms for %d entries: %w", n, err)
	}
	return out, nil
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
