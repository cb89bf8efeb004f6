package raft_test

import (
	"fmt"
	"testing"

	"recipe/internal/core"
	"recipe/internal/protocols/raft"
	"recipe/internal/prototest"
)

func newNet(t *testing.T, n int) *prototest.Net {
	return prototest.NewNet(t, n, func(i int) core.Protocol {
		return raft.New(int64(i)*100 + 7)
	})
}

// electLeader ticks until one instance wins an election.
func electLeader(t *testing.T, net *prototest.Net) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		net.TickAll()
		net.Run(10_000)
		if id, ok := net.Coordinator(); ok {
			return id
		}
	}
	t.Fatalf("no leader elected after 200 ticks")
	return ""
}

func TestLeaderElection(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	// All instances agree on the leader and term.
	term := net.Protos[leader].Status().Term
	for _, id := range net.Order() {
		st := net.Protos[id].Status()
		if st.Leader != leader {
			t.Errorf("%s sees leader %q, want %q", id, st.Leader, leader)
		}
		if st.Term != term {
			t.Errorf("%s at term %d, want %d", id, st.Term, term)
		}
	}
}

func TestSingleLeaderPerTerm(t *testing.T) {
	net := newNet(t, 5)
	electLeader(t, net)
	leaders := 0
	for _, id := range net.Order() {
		if net.Protos[id].Status().IsCoordinator {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d concurrent leaders", leaders)
	}
}

func TestReplicationAndCommit(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)

	cmd := core.Command{Op: core.OpPut, Key: "x", Value: []byte("1"), ClientID: "c", Seq: 1}
	net.Submit(leader, cmd)
	net.TickAndRun(3, 10_000) // commit index piggybacks on heartbeats

	rep, ok := net.LastReply(leader)
	if !ok || !rep.Res.OK {
		t.Fatalf("no successful reply at leader: %+v ok=%v", rep, ok)
	}
	// Every replica applied the committed write.
	for _, id := range net.Order() {
		v, err := net.Envs[id].Store().Get("x")
		if err != nil || string(v) != "1" {
			t.Errorf("%s store: %q, %v", id, v, err)
		}
	}
}

func TestLinearizableLeaderRead(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "k", Value: []byte("v"), ClientID: "c", Seq: 1})
	net.Run(10_000)
	net.Submit(leader, core.Command{Op: core.OpGet, Key: "k", ClientID: "c", Seq: 2})
	net.Run(10_000)
	rep, ok := net.LastReply(leader)
	if !ok || !rep.Res.OK || string(rep.Res.Value) != "v" {
		t.Fatalf("leader read = %+v", rep)
	}
}

func TestFollowerRejectsSubmit(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	var follower string
	for _, id := range net.Order() {
		if id != leader {
			follower = id
			break
		}
	}
	net.Submit(follower, core.Command{Op: core.OpPut, Key: "x", Value: []byte("1")})
	rep, ok := net.LastReply(follower)
	if !ok || rep.Res.OK || rep.Res.Err == "" {
		t.Fatalf("follower accepted submit: %+v", rep)
	}
}

func TestFailoverElectsNewLeader(t *testing.T) {
	net := newNet(t, 3)
	old := electLeader(t, net)
	net.Down[old] = true

	var next string
	for i := 0; i < 300; i++ {
		net.TickAll()
		net.Run(10_000)
		if id, ok := net.Coordinator(); ok && id != old {
			next = id
			break
		}
	}
	if next == "" {
		t.Fatalf("no new leader after crashing %s", old)
	}
	if net.Protos[next].Status().Term <= net.Protos[old].Status().Term {
		t.Errorf("new term %d not beyond old %d",
			net.Protos[next].Status().Term, net.Protos[old].Status().Term)
	}
}

func TestCommittedWritesSurviveFailover(t *testing.T) {
	net := newNet(t, 3)
	old := electLeader(t, net)
	for i := 0; i < 5; i++ {
		net.Submit(old, core.Command{
			Op: core.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v"),
			ClientID: "c", Seq: uint64(i + 1),
		})
		net.TickAndRun(3, 10_000)
	}
	net.Down[old] = true
	var next string
	for i := 0; i < 300 && next == ""; i++ {
		net.TickAll()
		net.Run(10_000)
		if id, ok := net.Coordinator(); ok && id != old {
			next = id
		}
	}
	if next == "" {
		t.Fatalf("no new leader")
	}
	// The committed writes survive into the new leadership (paper §3.5's
	// correctness condition for view changes).
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := net.Envs[next].Store().Get(key); err != nil {
			t.Errorf("committed %s lost after failover: %v", key, err)
		}
	}
}

func TestStaleTermMessagesIgnored(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	term := net.Protos[leader].Status().Term
	// Deliver a stale-term AppendEntries directly; it must be rejected and
	// leadership unaffected.
	net.Protos[leader].Handle("n9", &core.Wire{
		Kind: raft.KindAppendEntries, Term: term - 1, From: "n9",
	})
	net.Run(10_000)
	if st := net.Protos[leader].Status(); !st.IsCoordinator || st.Term != term {
		t.Errorf("stale message disturbed leadership: %+v", st)
	}
}

func TestLeaderAliveSuppressesElection(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	term := net.Protos[leader].Status().Term
	// Simulate: trusted lease says leader alive, but no traffic flows
	// (drop everything). No follower may start an election.
	for _, id := range net.Order() {
		net.Envs[id].Alive = true
	}
	net.Drop = func(s prototest.Sent) bool { return true }
	for i := 0; i < 100; i++ {
		net.TickAll()
		net.Run(100_000)
	}
	for _, id := range net.Order() {
		if st := net.Protos[id].Status(); st.Term != term {
			t.Errorf("%s advanced to term %d despite live lease", id, st.Term)
		}
	}
}

// TestDeposedLeaderNeverAcksUnreplicatedWrite: a leader partitioned from
// its followers appends a write it can never replicate; the connected
// majority elects a new leader and commits its own entries past that
// index. When the partition heals, the new leader's log overwrites the
// stranded suffix — the stranded write must never be acknowledged (its
// log slot now holds a different command) and must not appear in any
// store. Regression test for two follower-side bugs: clamping the commit
// index to the local log tail instead of the prefix verified against the
// leader, and binding an applied entry's result to a stale pending
// command at the same index.
func TestDeposedLeaderNeverAcksUnreplicatedWrite(t *testing.T) {
	net := newNet(t, 3)
	old := electLeader(t, net)

	// Cut the leader off in both directions.
	net.Drop = func(s prototest.Sent) bool { return s.From == old || s.To == old }

	// The stranded write: reaches the deposed leader's log and nothing else.
	net.Submit(old, core.Command{Op: core.OpPut, Key: "stranded", Value: []byte("1"), ClientID: "c", Seq: 9})
	net.Run(10_000)

	// The majority elects a new leader and commits writes past the
	// stranded entry's index.
	acked := 0
	for i := 0; i < 600 && acked < 4; i++ {
		net.TickAll()
		net.Run(10_000)
		cur := ""
		for _, id := range net.Order() {
			if id != old && net.Protos[id].Status().IsCoordinator {
				cur = id
			}
		}
		if cur == "" {
			continue
		}
		seq := uint64(acked + 1)
		net.Submit(cur, core.Command{Op: core.OpPut, Key: fmt.Sprintf("post-%d", acked), Value: []byte("v"), ClientID: "d", Seq: seq})
		net.TickAndRun(3, 10_000)
		if rep, ok := net.LastReply(cur); ok && rep.Cmd.ClientID == "d" && rep.Cmd.Seq == seq && rep.Res.OK {
			acked++
		}
	}
	if acked < 4 {
		t.Fatalf("majority committed only %d/4 writes while %s partitioned", acked, old)
	}

	// Heal; the new leader's entries overwrite the stranded suffix.
	net.Drop = nil
	net.TickAndRun(30, 10_000)

	// The deposed leader must never have answered the stranded write.
	for _, rep := range net.Envs[old].Replies {
		if rep.Cmd.Key == "stranded" {
			t.Fatalf("deposed leader acked its unreplicated write: %+v", rep.Res)
		}
	}
	// And it must not exist in any store.
	for _, id := range net.Order() {
		if v, err := net.Envs[id].Store().Get("stranded"); err == nil {
			t.Fatalf("%s store holds the unreplicated write %q", id, v)
		}
	}
	// The healed cluster converged on the majority's committed writes.
	for _, id := range net.Order() {
		if _, err := net.Envs[id].Store().Get("post-3"); err != nil {
			t.Errorf("%s missing committed post-3: %v", id, err)
		}
	}
}

// wrapReadEnvs re-Inits every instance onto a ReadPolicyEnv (before any
// election, since Init resets the role) and returns the wrappers.
func wrapReadEnvs(net *prototest.Net, policy core.ReadPolicy) map[string]*prototest.ReadPolicyEnv {
	renvs := make(map[string]*prototest.ReadPolicyEnv)
	for _, id := range net.Order() {
		renvs[id] = &prototest.ReadPolicyEnv{Env: net.Envs[id], Policy: policy, Lease: true}
		net.Protos[id].Init(renvs[id])
	}
	return renvs
}

// TestLeaseGatedLocalRead: with an active lease the leader answers a read
// from its store in the same step (no log round); with the lease expired the
// same read detours through the log — it still answers correctly, but only
// after a quorum round, and the fallback is counted.
func TestLeaseGatedLocalRead(t *testing.T) {
	net := newNet(t, 3)
	renvs := wrapReadEnvs(net, core.ReadLeaseLocal)
	leader := electLeader(t, net)
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "k", Value: []byte("v"), ClientID: "c", Seq: 1})
	net.Run(10_000)

	// Active lease: the read replies before any message is delivered.
	net.Submit(leader, core.Command{Op: core.OpGet, Key: "k", ClientID: "r", Seq: 1})
	rep, ok := net.LastReply(leader)
	if !ok || !rep.Res.OK || string(rep.Res.Value) != "v" || rep.Cmd.Op != core.OpGet {
		t.Fatalf("lease-local read did not serve immediately: %+v ok=%v", rep, ok)
	}
	if got := renvs[leader].Counts[core.ReadPathLocal]; got != 1 {
		t.Errorf("local-read count = %d, want 1", got)
	}

	// Expired lease: a deposed-leader-shaped node must not answer locally.
	renvs[leader].Lease = false
	net.Submit(leader, core.Command{Op: core.OpGet, Key: "k", ClientID: "r", Seq: 2})
	if rep, _ := net.LastReply(leader); rep.Cmd.Op == core.OpGet && rep.Cmd.Seq == 2 {
		t.Fatalf("read served locally with an expired lease: %+v", rep)
	}
	if got := renvs[leader].Counts[core.ReadPathFallback]; got != 1 {
		t.Errorf("fallback count = %d, want 1", got)
	}
	net.Run(10_000) // the quorum round completes the read through the log
	rep, ok = net.LastReply(leader)
	if !ok || !rep.Res.OK || string(rep.Res.Value) != "v" || rep.Cmd.Seq != 2 {
		t.Fatalf("expired-lease read never completed through the log: %+v ok=%v", rep, ok)
	}
}

// TestLeaderOnlyAlwaysTakesTheLog: the baseline policy never serves a read
// from the leader's store directly, lease or no lease.
func TestLeaderOnlyAlwaysTakesTheLog(t *testing.T) {
	net := newNet(t, 3)
	renvs := wrapReadEnvs(net, core.ReadLeaderOnly)
	leader := electLeader(t, net)
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "k", Value: []byte("v"), ClientID: "c", Seq: 1})
	net.Run(10_000)
	net.Submit(leader, core.Command{Op: core.OpGet, Key: "k", ClientID: "r", Seq: 1})
	if rep, _ := net.LastReply(leader); rep.Cmd.Op == core.OpGet {
		t.Fatalf("leader-only read served before the quorum round: %+v", rep)
	}
	net.Run(10_000)
	rep, ok := net.LastReply(leader)
	if !ok || !rep.Res.OK || string(rep.Res.Value) != "v" {
		t.Fatalf("leader-only read = %+v ok=%v", rep, ok)
	}
	if got := renvs[leader].Counts[core.ReadPathLocal]; got != 0 {
		t.Errorf("leader-only counted %d local reads, want 0", got)
	}
}

// TestLeaseRenewalNeedsQuorum: the leader's own lease renews only on a
// quorum of distinct same-term follower responses. One responsive follower
// out of five nodes must never renew — that is exactly the minority
// partition in which a successor can be elected elsewhere.
func TestLeaseRenewalNeedsQuorum(t *testing.T) {
	net := newNet(t, 5)
	renvs := wrapReadEnvs(net, core.ReadLeaseLocal)
	leader := electLeader(t, net)
	renvs[leader].Renewals = 0

	// Only one follower's responses reach the leader.
	var responsive string
	for _, id := range net.Order() {
		if id != leader {
			responsive = id
			break
		}
	}
	net.Drop = func(s prototest.Sent) bool {
		return s.To == leader && s.W.Kind == raft.KindAppendResp && s.From != responsive
	}
	net.TickAndRun(10, 10_000)
	if renvs[leader].Renewals != 0 {
		t.Fatalf("lease renewed %d times on a single follower's acks (quorum is 3)", renvs[leader].Renewals)
	}

	// A second distinct responder completes the quorum (leader + 2 of 5).
	net.Drop = func(s prototest.Sent) bool {
		if s.To != leader || s.W.Kind != raft.KindAppendResp {
			return false
		}
		return s.From != responsive && s.From != net.Order()[4]
	}
	if net.Order()[4] == leader || net.Order()[4] == responsive {
		t.Fatalf("test topology assumption broken: leader=%s responsive=%s", leader, responsive)
	}
	net.TickAndRun(10, 10_000)
	if renvs[leader].Renewals == 0 {
		t.Fatalf("lease never renewed with a quorum of distinct responders")
	}
}

// TestFollowerServesCleanRead: ServeCleanRead answers from the follower's
// store (committed-only by construction) and counts the replica path.
func TestFollowerServesCleanRead(t *testing.T) {
	net := newNet(t, 3)
	renvs := wrapReadEnvs(net, core.ReadAnyClean)
	leader := electLeader(t, net)
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "k", Value: []byte("v"), ClientID: "c", Seq: 1})
	net.TickAndRun(5, 10_000) // commit index piggybacks to followers

	var follower string
	for _, id := range net.Order() {
		if id != leader {
			follower = id
			break
		}
	}
	cr, ok := net.Protos[follower].(core.CleanReader)
	if !ok {
		t.Fatalf("raft does not implement core.CleanReader")
	}
	if !cr.ServeCleanRead(core.Command{Op: core.OpGet, Key: "k", ClientID: "r", Seq: 1}) {
		t.Fatalf("follower refused a clean read")
	}
	rep, ok := net.LastReply(follower)
	if !ok || !rep.Res.OK || string(rep.Res.Value) != "v" {
		t.Fatalf("follower clean read = %+v ok=%v", rep, ok)
	}
	if got := renvs[follower].Counts[core.ReadPathReplica]; got != 1 {
		t.Errorf("replica-read count = %d, want 1", got)
	}
}

// countShipped tallies the log entries the leader ships to each follower in
// AppendEntries, at delivery time (nothing is dropped).
func countShipped(net *prototest.Net, leader string) map[string]int {
	shipped := make(map[string]int)
	net.Drop = func(s prototest.Sent) bool {
		if s.From == leader && s.W.Kind == raft.KindAppendEntries {
			shipped[s.To] += len(s.W.Cmds)
		}
		return false
	}
	return shipped
}

// TestStaleAcksDoNotReship: every message takes one round to arrive and a
// tick passes every fourth round, so heartbeats interleave with in-flight
// AppendEntries and acks arrive after later AppendEntries were sent. A stale ack must neither move nextIndex
// back nor start another stream from it — otherwise each heartbeat leaves
// one more self-sustaining stream behind and the leader ships every entry
// many times over.
func TestStaleAcksDoNotReship(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	shipped := countShipped(net, leader)
	const rounds = 400
	for i := 0; i < rounds; i++ {
		for due := net.Pending(); due > 0; due-- {
			net.Step()
		}
		net.Submit(leader, core.Command{Op: core.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v"), ClientID: "c", Seq: uint64(i + 1)})
		if i%4 == 3 {
			net.TickAll()
		}
	}
	net.TickAndRun(5, 10_000)

	committed := 0
	for _, rep := range net.Envs[leader].Replies {
		if rep.Cmd.ClientID == "c" && rep.Res.OK {
			committed++
		}
	}
	if committed != rounds {
		t.Fatalf("committed %d of %d writes", committed, rounds)
	}
	for _, id := range net.Order() {
		if id == leader {
			continue
		}
		if ratio := float64(shipped[id]) / float64(committed); ratio > 1.5 {
			t.Errorf("leader shipped %d entries to %s for %d committed (%.2f per entry, want <= 1.5)",
				shipped[id], id, committed, ratio)
		}
	}
}

// TestDroppedAppendEntriesRecoveredByHeartbeat: the first entry-carrying
// AppendEntries to every follower is lost. The followers stay marked in
// flight, so new submissions do not ship; the next heartbeat resends from
// nextIndex and the writes commit and reach every store.
func TestDroppedAppendEntriesRecoveredByHeartbeat(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	lost := make(map[string]bool)
	net.Drop = func(s prototest.Sent) bool {
		if s.From == leader && s.W.Kind == raft.KindAppendEntries && len(s.W.Cmds) > 0 && !lost[s.To] {
			lost[s.To] = true
			return true
		}
		return false
	}
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "a", Value: []byte("1"), ClientID: "c", Seq: 1})
	net.Run(10_000)
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "b", Value: []byte("2"), ClientID: "c", Seq: 2})
	net.Run(10_000)
	if len(lost) != 2 {
		t.Fatalf("dropped the first AppendEntries to %d followers, want 2", len(lost))
	}
	if n := len(net.Envs[leader].Replies); n != 0 {
		t.Fatalf("%d writes acknowledged with every AppendEntries lost", n)
	}
	net.TickAndRun(6, 10_000)
	if n := len(net.Envs[leader].Replies); n != 2 {
		t.Fatalf("heartbeats recovered %d of 2 writes", n)
	}
	for _, id := range net.Order() {
		for _, k := range []string{"a", "b"} {
			if _, err := net.Envs[id].Store().Get(k); err != nil {
				t.Errorf("%s missing %q after heartbeat recovery: %v", id, k, err)
			}
		}
	}
}
