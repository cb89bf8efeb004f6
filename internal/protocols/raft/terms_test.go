package raft

import (
	"testing"

	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/prototest"
)

// TestAppendEntriesTermsMustMatchEntries is the regression for a follower
// crash: an AppendEntries whose terms blob held fewer terms than Cmds
// appended only the covered entries, yet counted every command towards the
// commit index, so applyCommitted indexed past the end of the log and
// panicked. A follower must drop any AppendEntries whose terms blob does not
// decode to exactly one term per entry with no bytes left over.
func TestAppendEntriesTermsMustMatchEntries(t *testing.T) {
	net := prototest.NewNet(t, 3, func(i int) core.Protocol { return New(int64(i)*100 + 7) })
	var leader string
	for i := 0; i < 200 && leader == ""; i++ {
		net.TickAll()
		net.Run(10_000)
		leader, _ = net.Coordinator()
	}
	if leader == "" {
		t.Fatal("no leader elected")
	}
	net.Submit(leader, core.Command{Op: core.OpPut, Key: "x", Value: []byte("1"), ClientID: "c", ClientAddr: "c", Seq: 1})
	net.TickAndRun(3, 10_000)

	var follower *Raft
	for _, id := range net.Order() {
		if id != leader {
			follower = net.Protos[id].(*Raft)
			break
		}
	}
	term := follower.term
	last := follower.lastIndex()
	commit := follower.commitIndex
	cmds := []core.Command{
		{Op: core.OpPut, Key: "a", Value: []byte("1"), ClientID: "c", ClientAddr: "c", Seq: 2},
		{Op: core.OpPut, Key: "b", Value: []byte("2"), ClientID: "c", ClientAddr: "c", Seq: 3},
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"short", encodeTerms([]uint64{term})},
		{"empty", nil},
		{"long", encodeTerms([]uint64{term, term, term})},
		{"trailing", append(encodeTerms([]uint64{term, term}), 0)},
	} {
		follower.Handle(leader, &core.Wire{
			Kind:   KindAppendEntries,
			Term:   term,
			Index:  last,
			TS:     kvstore.Version{TS: term},
			Commit: last + uint64(len(cmds)),
			Cmds:   cmds,
			Value:  tc.blob,
		})
		if got := follower.lastIndex(); got != last {
			t.Errorf("%s terms blob: log grew from %d to %d", tc.name, last, got)
		}
		if follower.commitIndex != commit {
			t.Errorf("%s terms blob: commit index moved from %d to %d", tc.name, commit, follower.commitIndex)
		}
	}

	// The well-formed AppendEntries still applies.
	follower.Handle(leader, &core.Wire{
		Kind: KindAppendEntries, Term: term, Index: last, TS: kvstore.Version{TS: term},
		Commit: last + 2, Cmds: cmds, Value: encodeTerms([]uint64{term, term}),
	})
	if got := follower.lastIndex(); got != last+2 || follower.commitIndex != last+2 {
		t.Errorf("well-formed AppendEntries: lastIndex %d commit %d, want %d", got, follower.commitIndex, last+2)
	}
}
