package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/bufpool"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/reconfig"
	"recipe/internal/tee"
)

// Client errors.
var (
	// ErrClientTimeout means no node answered within the retry budget.
	ErrClientTimeout = errors.New("core: client request timed out")
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// ID is the client's principal identity (attested at the CAS).
	ID string
	// Nodes is the membership the client may contact (single-group clusters).
	// Ignored when Groups or SignedMap is set.
	Nodes []string
	// Groups is the per-shard membership of a sharded cluster: Groups[g]
	// lists the replicas of replication group g. Ignored when SignedMap is
	// set (the map carries the memberships).
	Groups [][]string
	// SignedMap is the encoded CAS-signed shard map (reconfig.Signed) the
	// client starts from. With it the client is fully epoch-aware: it routes
	// by the map's slot assignment, dual-routes writes to migrating slots,
	// and refreshes the map when a node signals a newer epoch.
	SignedMap []byte
	// MapKey is the CAS's ed25519 map-verification key. Required to adopt
	// SignedMap or any refreshed map — an unverifiable map is ignored.
	MapKey []byte
	// FetchMap, when set, lets the client pull the current signed map from
	// the CAS when its configuration goes stale and no node has supplied one
	// (e.g. the only group it knew was retired).
	FetchMap func() ([]byte, error)
	// MasterKey is the network master key from the client's attestation.
	MasterKey []byte
	// Shielded must match the cluster's mode.
	Shielded bool
	// Confidential must match the cluster's mode.
	Confidential bool
	// RequestTimeout bounds one attempt (default 250ms).
	RequestTimeout time.Duration
	// MaxAttempts bounds retries across nodes (default 8).
	MaxAttempts int
	// Seed drives coordinator selection for leaderless protocols.
	Seed int64
	// ReadPolicy must match the cluster's read policy. Under ReadAnyClean
	// the client fans Get requests across the owning group's members
	// (round-robin) instead of pinning the coordinator, and enforces
	// session monotonicity via per-key version floors.
	ReadPolicy ReadPolicy
	// SessionCache, when > 0, bounds an epoch-coherent per-client read
	// cache of that many keys: a Get whose entry was produced under the
	// current configuration epoch is answered without any network traffic.
	// Entries are invalidated wholesale when a signed shard-map epoch bump
	// is adopted, and replaced by the session's own writes. 0 disables
	// value caching (version floors are still tracked under ReadAnyClean).
	SessionCache int
}

// Client issues PUT/GET/DELETE commands against a Recipe cluster. It is
// partition-aware and epoch-aware: keys route by the cluster's epoch-
// versioned shard map, writes to slots that are mid-migration are
// dual-routed to the slot's source and destination groups, and when a node
// rejects the client's configuration as stale the client verifies the
// node-supplied signed map and re-routes — so a reconfiguration costs a
// round trip, not the retry budget. Requests are shielded on the client's
// attested channels; replies are verified before being trusted — unlike
// classical BFT, one verified reply suffices because replicas are
// individually trustworthy after attestation (paper §A.2 Q2).
// A Client is not safe for concurrent use; create one per goroutine.
type Client struct {
	cfg      ClientConfig
	shielder *authn.Shielder
	tr       netstack.Transport
	rng      *rand.Rand

	rmap  *reconfig.ShardMap
	epoch uint64
	coord []string // per-group tracked coordinator
	seq   uint64

	// Session state (see sessEntry): per-key version floors that keep the
	// session monotonic across replica reads, doubling as the bounded
	// epoch-coherent value cache when cfg.SessionCache > 0.
	sess      map[string]*sessEntry
	sessOrder []string // keys in first-touch order (FIFO eviction)
	replicaRR int      // round-robin cursor for ReadAnyClean fan-out

	stats      ClientStats
	opBackoffs int // backoffs taken within the current op (jitter ceiling)
}

// ClientStats counts one client's retry and overload events. The client is
// single-goroutine, so plain fields suffice and Stats snapshots are exact.
type ClientStats struct {
	Ops         uint64 // operations completed successfully
	Retries     uint64 // attempts beyond each op's first (the retry budget spent)
	BusyRejects uint64 // admission-gate busy replies observed
	Exhausted   uint64 // operations that ran out of retry budget
}

// sessEntry is one key's session state: the highest version this session has
// observed (the monotonicity floor), and optionally the value produced under
// epoch (served as a cache hit while the epoch is current).
type sessEntry struct {
	ver   uint64 // highest observed version timestamp (the floor)
	epoch uint64 // configuration epoch the cached value was produced under
	val   []byte // cached value (only meaningful when has)
	has   bool   // a cacheable value is present
	del   bool   // the session last observed the key deleted (at ver)
}

// NewClient builds a client from its attested enclave and transport.
func NewClient(e *tee.Enclave, tr netstack.Transport, cfg ClientConfig) (*Client, error) {
	if cfg.ID == "" {
		return nil, errors.New("core: client needs an ID")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	var opts []authn.Option
	if cfg.Confidential {
		opts = append(opts, authn.WithConfidentiality())
	}
	c := &Client{
		cfg:      cfg,
		shielder: authn.NewShielder(e, opts...),
		tr:       tr,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}

	var m *reconfig.ShardMap
	switch {
	case len(cfg.SignedMap) > 0:
		signed, err := reconfig.DecodeSigned(cfg.SignedMap)
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", cfg.ID, err)
		}
		m, err = signed.Verify(cfg.MapKey)
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", cfg.ID, err)
		}
	default:
		// Legacy static configuration: synthesise the equivalent map.
		groups := cfg.Groups
		if len(groups) == 0 {
			groups = [][]string{cfg.Nodes}
		}
		for g, members := range groups {
			if len(members) == 0 {
				return nil, fmt.Errorf("core: client group %d has no nodes", g)
			}
		}
		m = reconfig.Uniform(0, len(groups), groups)
	}
	if err := c.adopt(m); err != nil {
		return nil, fmt.Errorf("client %s: %w", cfg.ID, err)
	}
	return c, nil
}

// adopt installs a verified map: channels for every member, coordinator
// slots for every group, the epoch into the MAC domain. Channels to members
// the new map no longer lists (retired groups, superseded incarnations) are
// closed, so a long-lived client does not accumulate state for every
// replica incarnation it ever spoke to.
func (c *Client) adopt(m *reconfig.ShardMap) error {
	if old := c.rmap; old != nil && c.cfg.Shielded {
		for _, members := range old.Members {
			for _, node := range members {
				if gone, stale := memberChanged(old, m, node); gone || stale {
					c.shielder.CloseChannel(replyChannelName(node, old.IncOf(node), c.cfg.ID))
					if gone {
						c.shielder.CloseChannel(clientChannel(c.cfg.ID, node))
					}
				}
			}
		}
	}
	for g, members := range m.Members {
		for _, node := range members {
			if err := c.openChannels(uint32(g), node, m.IncOf(node)); err != nil {
				return err
			}
		}
	}
	coord := make([]string, m.Groups())
	for g, members := range m.Members {
		if len(members) == 0 {
			continue // retired group: never a routing target of a valid map
		}
		if c.coord != nil && g < len(c.coord) && c.coord[g] != "" && slices.Contains(members, c.coord[g]) {
			coord[g] = c.coord[g] // keep a known-good coordinator across epochs
			continue
		}
		coord[g] = members[c.rng.Intn(len(members))]
	}
	old := c.rmap
	c.rmap = m
	c.coord = coord
	if c.epoch != m.Epoch {
		// Epoch bump: every cached value predates the new configuration and
		// is invalidated wholesale. The version floors survive for keys whose
		// owning group is unchanged — monotonicity is a session property and
		// must hold across reconfigurations. A key that moved groups is the
		// exception: migration installs it under a reset version space
		// (MigratedVersion, TS 0), so its old floor is incomparable and would
		// reject every legitimate read in the new group. Its floor resets;
		// cross-group monotonicity is the migration cutover's obligation (the
		// destination holds all acknowledged state before it owns the slot).
		c.flushSessionValues()
		if old != nil {
			for key, e := range c.sess {
				if old.GroupOf(key) != m.GroupOf(key) {
					*e = sessEntry{}
				}
			}
		}
	}
	c.epoch = m.Epoch
	c.shielder.SetEpoch(m.Epoch)
	return nil
}

// memberChanged reports whether a node of the old map is gone from the new
// one, and whether its incarnation was superseded.
func memberChanged(old, m *reconfig.ShardMap, node string) (gone, stale bool) {
	gone = true
	for _, members := range m.Members {
		if slices.Contains(members, node) {
			gone = false
			break
		}
	}
	return gone, !gone && m.IncOf(node) != old.IncOf(node)
}

// openChannels installs the directional channels to one node, bound to its
// group's MAC domain. The receive channel is qualified with the node's
// attested incarnation (from the signed map) via the shared
// replyChannelName, so a reborn replica talks over fresh channels with
// fresh counters. Loose ordering: stale responses overtaken by fresher ones
// are simply lost; the request/retry loop provides the end-to-end
// semantics.
func (c *Client) openChannels(group uint32, node string, inc uint64) error {
	if !c.cfg.Shielded {
		return nil
	}
	for _, cq := range []string{
		clientChannel(c.cfg.ID, node),
		replyChannelName(node, inc, c.cfg.ID),
	} {
		if c.shielder.HasChannel(cq) {
			continue
		}
		if err := c.shielder.OpenLooseGroupChannel(cq, attest.ChannelKey(c.cfg.MasterKey, cq), group); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the client's transport.
func (c *Client) Close() error { return c.tr.Close() }

// Shards returns the number of replication groups the client routes across.
func (c *Client) Shards() int { return c.rmap.Groups() }

// Epoch returns the configuration epoch the client currently routes under.
func (c *Client) Epoch() uint64 { return c.epoch }

// ShardOf returns the replication group that owns key under this client's
// current shard map.
func (c *Client) ShardOf(key string) int { return c.rmap.GroupOf(key) }

// Put writes value under key.
func (c *Client) Put(key string, value []byte) (Result, error) {
	return c.do(Command{Op: OpPut, Key: key, Value: value})
}

// Get reads key. With a session cache configured, an entry produced under
// the current epoch answers without any network traffic.
func (c *Client) Get(key string) (Result, error) {
	if res, ok := c.cacheGet(key); ok {
		return res, nil
	}
	return c.do(Command{Op: OpGet, Key: key})
}

// Delete removes key. Deleting an absent key succeeds (idempotent).
func (c *Client) Delete(key string) (Result, error) {
	return c.do(Command{Op: OpDelete, Key: key})
}

// do runs one command to completion: route to the group owning its key
// (re-resolved every attempt — the map can change mid-flight), follow
// redirects, rotate through a group's nodes on timeouts, refresh the map on
// epoch notices, and dual-route writes whose slot is mid-migration so the
// destination group never misses an acknowledged mutation.
func (c *Client) do(cmd Command) (Result, error) {
	c.seq++
	cmd.Seq = c.seq
	cmd.ClientID = c.cfg.ID
	cmd.ClientAddr = c.tr.Addr()
	c.opBackoffs = 0

	if cmd.Op == OpGet && c.cfg.ReadPolicy == ReadAnyClean {
		// Scale-out read path: probe shard members round-robin before the
		// coordinator-pinned loop. Probes are bounded separately and do NOT
		// charge the MaxAttempts budget — a stale or dead replica must not
		// burn the budget writes rely on.
		if res, ok := c.tryReplicaRead(&cmd); ok {
			c.sessionRecord(&cmd, res)
			c.stats.Ops++
			return res, nil
		}
	}

	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
		}
		if attempt == c.cfg.MaxAttempts/2 {
			// Halfway through the budget with no progress: the configuration
			// may be stale in a way no reachable node can tell us (e.g. the
			// owning group was retired). Re-fetch from the CAS.
			c.refreshFromCAS()
		}
		owner := c.rmap.GroupOf(cmd.Key)
		res, outcome := c.tryGroup(&cmd, owner)
		if outcome != tryOK {
			continue // rotated, redirected, or refreshed; try again
		}
		if cmd.Op != OpGet {
			if tgt := c.rmap.NextGroupOf(cmd.Key); tgt >= 0 {
				// The slot is mid-migration: the mutation must also reach the
				// destination group, or it could be lost at cutover if the
				// migration's copy already passed this key.
				if _, o2 := c.tryGroup(&cmd, tgt); o2 != tryOK {
					continue // owner leg is idempotent to retry (client table)
				}
			}
		}
		c.sessionRecord(&cmd, res)
		c.stats.Ops++
		return res, nil
	}
	c.stats.Exhausted++
	return Result{}, fmt.Errorf("%w: %s %q after %d attempts", ErrClientTimeout, cmd.Op, cmd.Key, c.cfg.MaxAttempts)
}

// Stats returns the client's retry/overload counters.
func (c *Client) Stats() ClientStats { return c.stats }

// tryGroup outcome.
type tryOutcome int

const (
	tryOK tryOutcome = iota + 1
	tryRetry
)

// tryGroup performs one request round against one group.
func (c *Client) tryGroup(cmd *Command, group int) (Result, tryOutcome) {
	if group < 0 || group >= len(c.coord) || len(c.rmap.Members[group]) == 0 {
		return Result{}, tryRetry
	}
	if err := c.send(c.coord[group], group, &Wire{Kind: KindClientReq, Cmd: cmd}); err != nil {
		// A failed send (dead node, closed endpoint) costs no await time, so
		// without a pause the retry budget burns in fast redirect-to-corpse
		// cycles before the group can re-elect. Back off a slice of the
		// request timeout instead — a smaller base for reads, whose common
		// failure (an expired lease detouring to the quorum path, a lagging
		// replica) clears far faster than a re-election and must not burn
		// the write retry budget's pacing. The backoff is full-jitter: after
		// an eviction every parked client wakes at once, and synchronized
		// retries would re-kill the survivor.
		c.rotate(group)
		c.backoff(cmd.Op != OpGet)
		return Result{}, tryRetry
	}
	res, redirect, busy, ok := c.await(cmd.Seq, group)
	// await may have adopted a newer map (epoch notice) with fewer groups;
	// everything below re-checks the group index against the current map.
	switch {
	case ok:
		return res, tryOK
	case busy:
		// The coordinator shed this op at admission: it is alive, just
		// saturated — rotating would only push the herd onto a replica that
		// must redirect back. Keep the coordinator, spread in time instead.
		c.stats.BusyRejects++
		c.backoff(cmd.Op != OpGet)
		return Result{}, tryRetry
	case redirect != "":
		if group < len(c.rmap.Members) && group < len(c.coord) &&
			slices.Contains(c.rmap.Members[group], redirect) {
			c.coord[group] = redirect
		}
		return Result{}, tryRetry
	default:
		c.rotate(group)
		return Result{}, tryRetry
	}
}

// backoff sleeps a full-jitter interval before the next attempt: uniform in
// [0, base<<k) where base is a slice of the request timeout (1/16 for reads,
// 1/8 for writes) and k counts this op's previous backoffs (capped). Full
// jitter decorrelates the reconnect storm after an eviction or a busy burst:
// the expected pause matches the old fixed sleeps, but no two clients wake
// in lockstep.
func (c *Client) backoff(write bool) {
	base := c.cfg.RequestTimeout / 16
	if write {
		base = c.cfg.RequestTimeout / 8
	}
	shift := c.opBackoffs
	if shift > 3 {
		shift = 3
	}
	c.opBackoffs++
	ceil := base << shift
	if ceil <= 0 {
		return
	}
	time.Sleep(time.Duration(c.rng.Int63n(int64(ceil))))
}

// rotate picks a different coordinator within the group.
func (c *Client) rotate(group int) {
	if group >= len(c.rmap.Members) || group >= len(c.coord) {
		return // the map shrank under us mid-attempt; the caller re-routes
	}
	members := c.rmap.Members[group]
	if len(members) <= 1 {
		return
	}
	prev := c.coord[group]
	for c.coord[group] == prev {
		c.coord[group] = members[c.rng.Intn(len(members))]
	}
}

// refreshFromCAS pulls and adopts the current signed map, if configured.
func (c *Client) refreshFromCAS() {
	if c.cfg.FetchMap == nil {
		return
	}
	signedEnc, err := c.cfg.FetchMap()
	if err != nil {
		return
	}
	c.installSigned(signedEnc)
}

// installSigned verifies an encoded signed map and adopts it if newer.
func (c *Client) installSigned(signedEnc []byte) bool {
	if len(signedEnc) == 0 || len(c.cfg.MapKey) == 0 {
		return false
	}
	signed, err := reconfig.DecodeSigned(signedEnc)
	if err != nil {
		return false
	}
	m, err := signed.Verify(c.cfg.MapKey)
	if err != nil || m.Epoch <= c.epoch {
		return false
	}
	return c.adopt(m) == nil
}

// send shields (if configured) and transmits one request to a node of the
// given group. Encode buffers are pooled: the transport's Send copies, so
// they are recycled on return.
func (c *Client) send(node string, group int, w *Wire) error {
	w.From = c.cfg.ID
	w.Group = uint32(group)
	w.Epoch = c.epoch
	payload := w.AppendTo(bufpool.Get(w.EncodedSize()))
	if !c.cfg.Shielded {
		err := c.tr.Send(node, payload)
		bufpool.Put(payload)
		return err
	}
	env, err := c.shielder.Shield(clientChannel(c.cfg.ID, node), w.Kind, payload)
	if err != nil {
		bufpool.Put(payload)
		return err
	}
	out := env.AppendTo(bufpool.Get(env.EncodedSize()))
	err = c.tr.Send(node, out)
	bufpool.Put(out)
	authn.RecyclePayload(&env)
	bufpool.Put(payload)
	return err
}

// await waits for the response to request seq from the given group,
// returning the result, or a redirect target, or a busy signal (the op was
// shed by the admission gate — retriable), or none of those on timeout.
// Epoch notices arriving meanwhile refresh the routing table and end the
// attempt.
func (c *Client) await(seq uint64, group int) (res Result, redirect string, busy, ok bool) {
	deadline := time.NewTimer(c.cfg.RequestTimeout)
	defer deadline.Stop()
	for {
		select {
		case pkt, chOK := <-c.tr.Inbox():
			if !chOK {
				return Result{}, "", false, false
			}
			w := c.decode(pkt)
			if w == nil {
				continue
			}
			if w.Kind == KindEpochNotice {
				// A node told us our configuration is stale and handed us the
				// current signed map. Adopt it (after verification) and let
				// the caller re-route.
				if c.installSigned(w.Value) {
					return Result{}, "", false, false
				}
				continue
			}
			if w.Index != seq || w.Group != uint32(group) {
				continue // stale, unverifiable, or other-group; keep waiting
			}
			switch w.Kind {
			case KindClientResp:
				if w.Res == nil {
					continue
				}
				return *w.Res, "", false, true
			case KindRedirect:
				return Result{}, w.Key, false, false
			case KindBusy:
				return Result{}, "", true, false
			}
		case <-deadline.C:
			return Result{}, "", false, false
		}
	}
}

// replicaReadAttempts bounds how many shard members a ReadAnyClean Get
// probes before falling back to the coordinator path. The probes are not
// charged against MaxAttempts.
const replicaReadAttempts = 2

// defaultSessionFloors bounds the floor-only session table when no value
// cache is configured: floors are cheap (no values retained) but must stay
// bounded for long-lived clients touching unbounded key sets.
const defaultSessionFloors = 4096

// tryReplicaRead fans one Get across the owning group's members
// (round-robin). A reply is accepted only if the session floor admits it —
// a replica lagging behind this session's own observations must not make
// the session read backward; such replies (and probe failures) fall back to
// the authoritative coordinator path.
func (c *Client) tryReplicaRead(cmd *Command) (Result, bool) {
	for i := 0; i < replicaReadAttempts; i++ {
		group := c.rmap.GroupOf(cmd.Key)
		if group < 0 || group >= len(c.rmap.Members) || len(c.rmap.Members[group]) == 0 {
			return Result{}, false
		}
		members := c.rmap.Members[group]
		c.replicaRR++
		node := members[c.replicaRR%len(members)]
		if err := c.send(node, group, &Wire{Kind: KindClientReq, Cmd: cmd}); err != nil {
			// Fast read retry: a dead replica costs a jittered sliver of the
			// request timeout, not the write backoff (no MaxAttempts charge).
			c.backoff(false)
			continue
		}
		res, redirect, busy, ok := c.await(cmd.Seq, group)
		switch {
		case ok:
			if !c.sessionAccepts(cmd.Key, res) {
				return Result{}, false // stale replica: let the coordinator decide
			}
			return res, true
		case busy:
			// Shed at admission: the coordinator path would hit the same
			// gate, so pause here before handing over.
			c.stats.BusyRejects++
			c.backoff(false)
			return Result{}, false
		case redirect != "":
			// The replica would not serve (e.g. policy disabled node-side);
			// go straight to the coordinator path.
			return Result{}, false
		}
		// Timeout or epoch refresh: re-resolve and probe the next member.
	}
	return Result{}, false
}

// sessionTracking reports whether per-key session state is maintained.
func (c *Client) sessionTracking() bool {
	return c.cfg.ReadPolicy == ReadAnyClean || c.cfg.SessionCache > 0
}

// sessionBound is the session table's capacity (keys).
func (c *Client) sessionBound() int {
	if c.cfg.SessionCache > 0 {
		return c.cfg.SessionCache
	}
	return defaultSessionFloors
}

// sessionEntry returns (creating if asked) the session entry for key,
// evicting the oldest entry when the bound is hit.
func (c *Client) sessionEntry(key string, create bool) *sessEntry {
	if e, ok := c.sess[key]; ok {
		return e
	}
	if !create {
		return nil
	}
	if c.sess == nil {
		c.sess = make(map[string]*sessEntry)
	}
	for len(c.sessOrder) >= c.sessionBound() {
		delete(c.sess, c.sessOrder[0])
		c.sessOrder = c.sessOrder[1:]
	}
	e := &sessEntry{}
	c.sess[key] = e
	c.sessOrder = append(c.sessOrder, key)
	return e
}

// isNotFound reports whether a Result carries the store's not-found error.
func isNotFound(res Result) bool {
	return !res.OK && res.Err != "" && strings.Contains(res.Err, kvstore.ErrNotFound.Error())
}

// sessionAccepts decides whether a replica-read reply may be given to the
// session: a value must be at or above the session's floor, and a not-found
// is only believable when the session has never seen the key — or last saw
// it deleted. Anything else means the replica lags this session.
func (c *Client) sessionAccepts(key string, res Result) bool {
	if !c.sessionTracking() {
		return true
	}
	e := c.sessionEntry(key, false)
	if e == nil {
		return true
	}
	switch {
	case res.OK:
		return res.Version.TS >= e.ver
	case isNotFound(res):
		return e.ver == 0 || e.del
	default:
		return false // transient error: fall back rather than surface it
	}
}

// sessionRecord folds a completed command's result into the session state:
// floors ratchet up on every observed version (reads and the session's own
// writes and deletes), and — with a value cache configured — successful
// reads and own writes install the value under the current epoch.
func (c *Client) sessionRecord(cmd *Command, res Result) {
	if !c.sessionTracking() {
		return
	}
	caching := c.cfg.SessionCache > 0
	switch {
	case res.OK && cmd.Op == OpGet:
		e := c.sessionEntry(cmd.Key, true)
		if res.Version.TS >= e.ver {
			e.ver, e.del = res.Version.TS, false
			if caching {
				e.val = append(e.val[:0], res.Value...)
				e.has, e.epoch = true, c.epoch
			}
		}
	case res.OK && cmd.Op == OpPut:
		e := c.sessionEntry(cmd.Key, true)
		if res.Version.TS >= e.ver {
			e.ver, e.del = res.Version.TS, false
			if caching {
				e.val = append(e.val[:0], cmd.Value...)
				e.has, e.epoch = true, c.epoch
			}
		}
	case res.OK && cmd.Op == OpDelete:
		e := c.sessionEntry(cmd.Key, true)
		if res.Version.TS >= e.ver {
			e.ver, e.del, e.has, e.val = res.Version.TS, true, false, nil
		}
	case isNotFound(res) && cmd.Op == OpGet:
		// An authoritative not-found after the session saw a version means
		// the key was deleted by someone: record that so lagging-replica
		// not-founds are distinguishable from backward reads.
		if e := c.sessionEntry(cmd.Key, false); e != nil && e.ver > 0 {
			e.del, e.has, e.val = true, false, nil
		}
	}
}

// cacheGet answers a Get from the session cache iff a value cache is
// configured and the entry was produced under the current epoch.
func (c *Client) cacheGet(key string) (Result, bool) {
	if c.cfg.SessionCache <= 0 {
		return Result{}, false
	}
	e := c.sessionEntry(key, false)
	if e == nil || !e.has || e.epoch != c.epoch {
		return Result{}, false
	}
	return Result{OK: true, Value: append([]byte(nil), e.val...), Version: kvstore.Version{TS: e.ver}}, true
}

// flushSessionValues drops every cached value (epoch bump) but keeps the
// version floors: monotonicity outlives reconfigurations.
func (c *Client) flushSessionValues() {
	for _, e := range c.sess {
		e.has, e.val = false, nil
	}
}

// decode verifies and parses one inbound packet, returning nil for anything
// not trustworthy.
func (c *Client) decode(pkt netstack.Packet) *Wire {
	if !c.cfg.Shielded {
		w, err := DecodeWire(pkt.Data)
		if err != nil {
			return nil
		}
		return w
	}
	var env authn.Envelope
	if err := authn.DecodeEnvelopeInto(&env, pkt.Data); err != nil {
		// Epoch notices travel outside the shielded channels (a stale
		// client may not even know the sender's incarnation): accept the
		// bare wire form for exactly that kind — its payload is a CAS-signed
		// map, and installSigned verifies the signature before anything is
		// believed. All other unshielded frames stay untrusted.
		if w, werr := DecodeWire(pkt.Data); werr == nil && w.Kind == KindEpochNotice {
			return w
		}
		return nil
	}
	_, delivered, err := c.shielder.Verify(env)
	if err != nil || len(delivered) == 0 {
		return nil
	}
	// Client channels are strictly request/response; take the first message.
	w, err := DecodeWire(delivered[0].Payload)
	if err != nil {
		return nil
	}
	if sender, ok := channelSender(env.Channel); !ok || sender != w.From {
		return nil
	}
	return w
}
