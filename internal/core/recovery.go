package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"recipe/internal/codec"
	"recipe/internal/kvstore"
	"recipe/internal/reconfig"
)

// statePageSize bounds how many keys one state-transfer page carries.
const statePageSize = 256

// stateEntry is one KV triple in a state-transfer page. Deleted entries
// carry no value: they are tombstone floors (RemoveVersioned state), shipped
// so a receiver cannot resurrect a committed delete from a stale write, and
// only emitted on the final page (tombstones are not part of the ordered key
// enumeration pagination walks).
type stateEntry struct {
	Key     string
	Value   []byte
	Version kvstore.Version
	Deleted bool
}

// encodeStatePage serialises a page in the canonical-varint encoding of
// internal/codec: [count][entries...][next key][done][sidecar], each entry
// [deleted][key][value][version.TS][version.Writer]. The sidecar (protocol
// side state, see StateSidecar) is only non-empty on the final page.
func encodeStatePage(entries []stateEntry, next string, done bool, sidecar []byte) []byte {
	buf := make([]byte, 0, 64+len(sidecar))
	buf = codec.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = codec.AppendBool(buf, e.Deleted)
		buf = codec.AppendString(buf, e.Key)
		buf = codec.AppendBytes(buf, e.Value)
		buf = codec.AppendUvarint(buf, e.Version.TS)
		buf = codec.AppendUvarint(buf, e.Version.Writer)
	}
	buf = codec.AppendString(buf, next)
	buf = codec.AppendBool(buf, done)
	return codec.AppendBytes(buf, sidecar)
}

// minEncodedStateEntry is the smallest encoded entry: the deleted flag, two
// one-byte length prefixes, and two one-byte version words.
const minEncodedStateEntry = 5

// decodeStatePage parses a page. The entry count is bounded by the input
// before the entries are allocated.
func decodeStatePage(data []byte) (entries []stateEntry, next string, done bool, sidecar []byte, err error) {
	r := codec.NewReader(data)
	entries = make([]stateEntry, r.Count(minEncodedStateEntry))
	for i := range entries {
		e := &entries[i]
		e.Deleted = r.Bool()
		e.Key = r.String()
		e.Value = r.Bytes()
		e.Version.TS = r.Uvarint()
		e.Version.Writer = r.Uvarint()
	}
	next = r.String()
	done = r.Bool()
	sidecar = r.Bytes()
	if err := r.Finish(); err != nil {
		return nil, "", false, nil, fmt.Errorf("decode state page: %w", err)
	}
	return entries, next, done, sidecar, nil
}

// recovery tracks an in-progress state transfer at a joining node.
type recovery struct {
	token uint64
	peer  string
	floor uint64
	done  chan error
}

// SyncFromFloor performs the recovery protocol's state-transfer step
// (§3.7): the (already attested and started) node pulls the current state
// from peer page by page, applying pages with versioned writes so
// concurrent live writes are never rolled back. It blocks until the
// transfer completes or times out. The node keeps participating in the
// protocol throughout — it is a shadow replica while syncing.
//
// The donor skips entries whose version timestamp is at or below floor
// (tombstone floors always ship); floor 0 transfers the whole store. A
// replica that recovered its sealed local state passes its RecoveredFloor,
// so the transfer streams only the suffix it missed while down instead of
// the whole store — this is what makes sealed recovery cheaper than state
// transfer at large store sizes.
//
// The floor is only sound for protocols whose version timestamps are a
// total order over all mutations (Snapshotter protocols — Raft's log
// indices): there, everything at or below the replica's own maximum is
// already present locally. Per-key-ordered protocols (ABD's Lamport clocks)
// must pass 0.
func (n *Node) SyncFromFloor(peer string, floor uint64, timeout time.Duration) error {
	n.clientMu.Lock()
	if n.recov != nil {
		n.clientMu.Unlock()
		return errors.New("core: state transfer already in progress")
	}
	n.recovToken++
	rec := &recovery{token: n.recovToken, peer: peer, floor: floor, done: make(chan error, 1)}
	n.recov = rec
	n.clientMu.Unlock()

	n.sendWire(peer, &Wire{Kind: KindStateReq, Index: rec.token, Key: "", Commit: floor})
	n.flushOutbound() // SyncFromFloor runs outside the event loop

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-rec.done:
		return err
	case <-timer.C:
		n.clientMu.Lock()
		n.recov = nil
		n.clientMu.Unlock()
		return fmt.Errorf("core: state transfer from %s timed out", peer)
	case <-n.stopCh:
		return ErrStopped
	}
}

// handleStateResp applies one received page and requests the next.
func (n *Node) handleStateResp(from string, w *Wire) {
	n.clientMu.Lock()
	rec := n.recov
	n.clientMu.Unlock()
	if rec == nil || rec.token != w.Index || rec.peer != from {
		return // stale transfer
	}
	next, done, sidecar, err := n.applyStatePage(w.Value)
	if err != nil {
		n.finishRecovery(rec, err)
		return
	}
	if done {
		// This runs on the event loop, so it is safe to touch the protocol:
		// fast-forward log-based protocols past the transferred state and
		// merge any protocol side state (e.g. ABD tombstones).
		if snap, ok := n.proto.(Snapshotter); ok && w.Commit > 0 {
			snap.InstallSnapshot(w.Commit)
		}
		if sc, ok := n.proto.(StateSidecar); ok && len(sidecar) > 0 {
			sc.ImportSidecar(sidecar)
		}
		n.finishRecovery(rec, nil)
		return
	}
	n.sendWire(from, &Wire{Kind: KindStateReq, Index: rec.token, Key: next, Commit: rec.floor})
}

func (n *Node) finishRecovery(rec *recovery, err error) {
	n.clientMu.Lock()
	if n.recov == rec {
		n.recov = nil
	}
	n.clientMu.Unlock()
	rec.done <- err
}

// serveStatePage answers a KindStateReq: it reads up to statePageSize keys
// starting at w.Key from the local store and returns them with versions, so
// a recovering shadow replica (or a slot migrator) can catch up (paper §3.7
// step 4). A non-zero w.Term is a slot bitmask: only keys whose hash slot is
// set are served — the filter the migration engine uses to stream exactly
// the keyspace ranges changing owner. A non-zero w.Commit is a version
// floor: entries whose version timestamp is at or below it are skipped — a
// sealed-recovery replica already holds them, so only the missing suffix
// streams (SyncFromFloor documents when the floor is sound). The final page
// additionally carries the matching tombstone floors, so deletes survive
// the transfer.
func (n *Node) serveStatePage(from string, w *Wire) {
	mask, floor := w.Term, w.Commit
	include := func(key string) bool {
		if mask == 0 {
			return true
		}
		if strings.HasPrefix(key, FencePrefix) {
			return false // per-group control keys never migrate
		}
		return mask&(1<<uint(reconfig.SlotOf(key))) != 0
	}
	entries := make([]stateEntry, 0, statePageSize)
	next := ""
	done := true
	n.store.Range(w.Key, func(key string, v kvstore.Version) bool {
		if !include(key) || (floor > 0 && v.TS <= floor) {
			return true
		}
		if len(entries) == statePageSize {
			next = key
			done = false
			return false
		}
		val, _, err := n.store.GetVersioned(key)
		if err != nil {
			return true // skip keys that fail integrity; recoverer retries elsewhere
		}
		entries = append(entries, stateEntry{Key: key, Value: val, Version: v})
		return true
	})
	var sidecar []byte
	if done {
		// The final page carries the tombstone floors — without them a
		// receiver could resurrect a committed delete from a stale write —
		// and the protocol's transferable side state.
		n.store.RangeTombs(func(key string, v kvstore.Version) bool {
			if include(key) {
				entries = append(entries, stateEntry{Key: key, Version: v, Deleted: true})
			}
			return true
		})
		if sc, ok := n.proto.(StateSidecar); ok {
			sidecar = sc.ExportSidecar()
		}
	}
	resp := &Wire{
		Kind:  KindStateResp,
		Index: w.Index, // echo the requester's transfer id
		OK:    done,
		Key:   next,
		Value: encodeStatePage(entries, next, done, sidecar),
	}
	if done {
		// The final page tells a log-based protocol which log position the
		// transferred state covers.
		if snap, ok := n.proto.(Snapshotter); ok {
			resp.Commit = snap.SnapshotIndex()
		}
	}
	n.sendWire(from, resp)
}

// applyStatePage installs one page into the local store using versioned
// writes, so pages arriving out of order or concurrently with live writes
// never roll a key backwards.
func (n *Node) applyStatePage(data []byte) (next string, done bool, sidecar []byte, err error) {
	entries, next, done, sidecar, err := decodeStatePage(data)
	if err != nil {
		return "", false, nil, err
	}
	for _, e := range entries {
		var werr error
		if e.Deleted {
			// A donor tombstone floor: record it so a stale or replayed write
			// below it cannot resurrect the deleted key here.
			werr = n.store.RemoveVersioned(e.Key, e.Version)
		} else {
			werr = n.store.WriteVersioned(e.Key, e.Value, e.Version)
		}
		if werr != nil && !errors.Is(werr, kvstore.ErrStaleVersion) {
			return "", false, nil, fmt.Errorf("apply state page: %w", werr)
		}
		// Stale entries are fine: a fresher write already landed locally.
	}
	return next, done, sidecar, nil
}
