package authn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
	"sync/atomic"

	"recipe/internal/bufpool"
	"recipe/internal/tee"
)

// Verification errors (the distinguishable rejection causes of Algorithm 1).
var (
	// ErrBadMAC means the message failed integrity/authenticity verification.
	ErrBadMAC = errors.New("authn: MAC verification failed")
	// ErrReplay means the message counter is not fresh (cnt <= rcnt).
	ErrReplay = errors.New("authn: replayed message")
	// ErrWrongView means the message was produced in a different view.
	ErrWrongView = errors.New("authn: wrong view")
	// ErrWrongGroup means the message belongs to a different replication
	// group (shard): a valid envelope captured in one group was injected into
	// another. Non-equivocation is per group; crossing the boundary is an
	// attack, never a transient.
	ErrWrongGroup = errors.New("authn: wrong replication group")
	// ErrStaleEpoch means the message was produced under an older
	// configuration epoch: genuine traffic captured before a reconfiguration
	// and replayed after it (or a sender that has not yet adopted the new
	// shard map). Stale-configuration traffic must never reach the protocol —
	// it routes by an ownership assignment that no longer holds.
	ErrStaleEpoch = errors.New("authn: stale configuration epoch")
	// ErrUnknownChannel means no key material exists for the channel.
	ErrUnknownChannel = errors.New("authn: unknown channel")
	// ErrFutureOverflow means the out-of-order buffer exceeded its bound.
	ErrFutureOverflow = errors.New("authn: future buffer overflow")
)

// maxFutureBuffer bounds how many out-of-order messages are parked per
// channel inside the protected area before the sender is considered faulty.
const maxFutureBuffer = 4096

// maxFutureBytes bounds the total payload bytes parked per channel. The
// count bound alone would let a Byzantine peer park maxFutureBuffer
// max-sized payloads (gigabytes) inside the protected area; the byte budget
// caps the channel's memory exposure regardless of payload size. Drops are
// counted in OverflowDrops.
const maxFutureBytes = 4 << 20

// macLen is the HMAC-SHA256 tag length.
const macLen = sha256.Size

// Status classifies the outcome of Verify.
type Status int

// Verification outcomes.
const (
	// Delivered: the message (and possibly buffered successors) is ready.
	Delivered Status = iota + 1
	// Buffered: the message is authentic but from the future; it is parked
	// until the sequence gap closes.
	Buffered
)

// Shielder implements ShieldRequest/VerifyRequest for one attested node. All
// key material and counters live logically inside the node's enclave; the
// untrusted host only ever sees encoded envelopes.
//
// Concurrency: the channel table is an RWMutex-guarded map with a lock per
// channel. Shield/Verify/ShieldBatch take the table lock shared and the
// channel lock exclusive, so traffic on different channels — node loop,
// client router, migrator — never serialises on a global lock; only
// table-shape operations (open/close) and the view/epoch writers take the
// table lock exclusively. SetView's counter resets are atomic with respect
// to in-flight seals because an in-flight Shield holds the table lock shared
// for its whole critical section.
type Shielder struct {
	enclave      *tee.Enclave
	confidential bool

	mu    sync.RWMutex
	view  uint64
	epoch uint64
	send  map[string]*sendState
	recv  map[string]*recvState

	// overflowDrops counts authenticated messages discarded because a
	// channel's future buffer hit its count or byte bound (observability; see
	// OverflowDrops).
	overflowDrops atomic.Uint64
}

// sendState is one channel's transmit half. Its mutex serialises seals on
// the channel; the mac/hdr fields are per-channel reusable state — the keyed
// HMAC schedule is computed once at open and Reset per message, and the
// header is serialised into a scratch buffer that lives with the channel —
// so the steady-state seal performs no allocation beyond the MAC tag.
type sendState struct {
	mu    sync.Mutex
	key   []byte
	aead  cipher.AEAD // non-nil in confidential mode
	mac   hash.Hash   // precomputed keyed HMAC state, Reset+reused per seal
	hdr   []byte      // header scratch
	cnt   uint64
	group uint32 // replication group stamped into every envelope
}

// recvState is one channel's receive half, with the same per-channel
// reusable MAC/scratch state as sendState plus the delivery machinery.
type recvState struct {
	mu    sync.Mutex
	key   []byte
	aead  cipher.AEAD
	mac   hash.Hash
	hdr   []byte // header scratch
	sum   []byte // computed-MAC scratch
	group uint32 // envelopes on this channel must carry this group
	rcnt  uint64

	future map[uint64]Envelope
	// futureBytes tracks the payload bytes parked in future, enforcing
	// maxFutureBytes.
	futureBytes int

	// delivered is the reusable slice returned by Verify; see the buffer
	// ownership contract in the package documentation.
	delivered []Envelope
	// items is the reusable batch-decode scratch.
	items []BatchItem

	// loose channels deliver any fresh message immediately (monotonicity
	// and replay protection only, no gap closure) — used for client
	// request/response channels where the application layer dedups.
	loose bool
	// age counts ticks the future buffer has been non-empty, driving the
	// periodic gap-skip of TickFutures.
	age int
}

// Option configures a Shielder.
type Option func(*Shielder)

// WithConfidentiality enables payload encryption on all channels.
func WithConfidentiality() Option {
	return func(s *Shielder) { s.confidential = true }
}

// NewShielder creates the authentication layer for a node. Channels must be
// opened with the session keys received during attestation before use.
func NewShielder(e *tee.Enclave, opts ...Option) *Shielder {
	s := &Shielder{
		enclave: e,
		send:    make(map[string]*sendState),
		recv:    make(map[string]*recvState),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Confidential reports whether payload encryption is enabled.
func (s *Shielder) Confidential() bool { return s.confidential }

// OpenChannel installs the symmetric session key for channel cq in both
// directions, in replication group 0. Keys come from the attestation phase;
// opening a channel twice resets its counters (used only when a channel is
// re-keyed after recovery).
func (s *Shielder) OpenChannel(cq string, key []byte) error {
	return s.open(cq, key, 0, false)
}

// OpenGroupChannel is OpenChannel bound to a replication group (shard): every
// envelope shielded on the channel is stamped with the group, the MAC covers
// it, and Verify rejects envelopes carrying any other group with
// ErrWrongGroup. Both endpoints must open the channel in the same group.
func (s *Shielder) OpenGroupChannel(cq string, key []byte, group uint32) error {
	return s.open(cq, key, group, false)
}

// OpenLooseChannel is OpenChannel with relaxed ordering on the receive side:
// any authentic message fresher than rcnt is delivered immediately and rcnt
// jumps to its counter. Replay protection and monotonicity still hold;
// messages overtaken by a fresher delivery are treated as lost. Client
// request/response channels use this (the client table and request retries
// provide the end-to-end semantics).
func (s *Shielder) OpenLooseChannel(cq string, key []byte) error {
	return s.open(cq, key, 0, true)
}

// OpenLooseGroupChannel is OpenLooseChannel bound to a replication group.
func (s *Shielder) OpenLooseGroupChannel(cq string, key []byte, group uint32) error {
	return s.open(cq, key, group, true)
}

func (s *Shielder) open(cq string, key []byte, group uint32, loose bool) error {
	if len(key) < 16 {
		return fmt.Errorf("authn: channel %s key too short (%d bytes)", cq, len(key))
	}
	var sendAEAD, recvAEAD cipher.AEAD
	if s.confidential {
		var err error
		if sendAEAD, err = newAEAD(key); err != nil {
			return fmt.Errorf("authn: channel %s: %w", cq, err)
		}
		if recvAEAD, err = newAEAD(key); err != nil {
			return fmt.Errorf("authn: channel %s: %w", cq, err)
		}
	}
	k := make([]byte, len(key))
	copy(k, key)
	// The keyed HMAC states are precomputed here, once per channel per
	// direction, and Reset+reused for every message — the per-message
	// hmac.New (two hash states plus the key schedule) this replaces was the
	// single largest allocation on the hot path.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.send[cq] = &sendState{
		key:   k,
		aead:  sendAEAD,
		mac:   hmac.New(sha256.New, k),
		hdr:   make([]byte, 0, maxHeaderSize+len(cq)),
		group: group,
	}
	s.recv[cq] = &recvState{
		key:       k,
		aead:      recvAEAD,
		mac:       hmac.New(sha256.New, k),
		hdr:       make([]byte, 0, maxHeaderSize+len(cq)),
		sum:       make([]byte, 0, macLen),
		group:     group,
		loose:     loose,
		future:    make(map[uint64]Envelope),
		delivered: make([]Envelope, 0, 4),
	}
	return nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// CloseChannel discards a channel's key material and counter state in both
// directions. Reconfiguration uses it to prune channels to retired members
// and superseded incarnations, so long-lived principals do not accumulate
// state for every peer they ever spoke to.
func (s *Shielder) CloseChannel(cq string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.send, cq)
	delete(s.recv, cq)
}

// HasChannel reports whether key material is installed for cq.
func (s *Shielder) HasChannel(cq string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.send[cq]
	return ok
}

// SetView moves the shielder to a new view (after view change). Per the
// paper, counters restart per view; receivers reject other-view messages.
// The exclusive table lock makes the reset atomic with respect to in-flight
// seals and verifies: no envelope can carry the new view with a pre-reset
// counter or vice versa.
func (s *Shielder) SetView(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.view = v
	for _, st := range s.send {
		st.cnt = 0
	}
	for _, st := range s.recv {
		st.rcnt = 0
		clear(st.future)
		st.futureBytes = 0
	}
}

// View returns the shielder's current view.
func (s *Shielder) View() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view
}

// SetEpoch moves the shielder to a (newer) configuration epoch after a
// verified shard map installs. Unlike a view change, an epoch bump does NOT
// reset channel counters: the channels and their replay protection carry
// across the reconfiguration; only envelopes stamped with an older epoch are
// rejected from then on. Older epochs are ignored (installs are monotonic).
func (s *Shielder) SetEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.epoch {
		s.epoch = e
	}
}

// Epoch returns the shielder's current configuration epoch.
func (s *Shielder) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Shield implements Algorithm 1's shield_request: it assigns the next
// sequence tuple for the channel and MACs (and optionally encrypts) the
// payload inside the TEE.
//
// The returned envelope's Payload aliases the caller's payload in
// non-confidential mode (no copy is taken); in confidential mode it is a
// pooled buffer the caller releases with RecyclePayload after encoding. See
// the buffer ownership contract in the package documentation.
func (s *Shielder) Shield(cq string, kind uint16, payload []byte) (Envelope, error) {
	if s.enclave.Crashed() {
		return Envelope{}, tee.ErrEnclaveCrashed
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.send[cq]
	if !ok {
		return Envelope{}, fmt.Errorf("%w: %s", ErrUnknownChannel, cq)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cnt++
	env := Envelope{
		View:    s.view,
		Epoch:   s.epoch,
		Channel: cq,
		Group:   st.group,
		Seq:     st.cnt,
		Kind:    kind,
		Enc:     s.confidential,
	}
	st.hdr = env.appendHeader(st.hdr[:0])
	s.enclave.ChargeTransition()
	if env.Enc {
		s.enclave.ChargeConfidential(len(payload))
		sealed, err := sealPooled(st.aead, st.hdr, payload)
		if err != nil {
			return Envelope{}, err
		}
		env.Payload = sealed
	} else {
		env.Payload = payload
	}
	env.MAC = st.sealMAC(env.Payload)
	return env, nil
}

// sealPooled encrypts payload under aead with a fresh random nonce into a
// pooled buffer laid out nonce||ciphertext (the confidential wire format).
func sealPooled(aead cipher.AEAD, header, payload []byte) ([]byte, error) {
	ns := aead.NonceSize()
	buf := bufpool.Get(ns + len(payload) + aead.Overhead())
	buf = buf[:ns]
	if _, err := io.ReadFull(rand.Reader, buf); err != nil {
		bufpool.Put(buf)
		return nil, fmt.Errorf("authn: nonce: %w", err)
	}
	// Seal appends the ciphertext after the nonce in the same buffer.
	return aead.Seal(buf, buf[:ns], payload, header), nil
}

// sealMAC computes the envelope MAC over the header scratch and payload with
// the channel's reusable keyed state. The tag is the seal's one allocation,
// so envelopes stay independent of each other. Holds st.mu.
func (st *sendState) sealMAC(payload []byte) []byte {
	st.mac.Reset()
	st.mac.Write(st.hdr)
	st.mac.Write(payload)
	return st.mac.Sum(make([]byte, 0, macLen))
}

// RecyclePayload returns a sender-side envelope's pooled payload buffer
// (confidential ciphertexts and batch bodies) to the shared pool and clears
// the field. It must be called only on envelopes produced by Shield or
// ShieldBatch, only after the envelope has been encoded, and at most once.
// For non-confidential single-message envelopes (whose payload aliases the
// caller's own buffer) it is a no-op.
func RecyclePayload(env *Envelope) {
	if env.Payload == nil || (!env.Enc && !env.Batch) {
		return
	}
	bufpool.Put(env.Payload)
	env.Payload = nil
}

// ShieldBatch shields N messages for channel cq under a single sealed
// envelope: the items occupy the counter range [Seq, Seq+N-1] but cost one
// MAC, one enclave transition, and (in confidential mode) one AEAD seal —
// the amortization that makes the shielded hot path batch-friendly. A
// one-item batch degrades to a plain Shield.
//
// The batch body is built in a pooled buffer; the caller releases it with
// RecyclePayload after encoding the envelope. Item payloads are copied into
// the body, so the caller may reuse them as soon as ShieldBatch returns —
// except for a one-item batch, which degrades to Shield and follows Shield's
// aliasing contract (the envelope's payload references the item's buffer
// until encoded).
func (s *Shielder) ShieldBatch(cq string, items []BatchItem) (Envelope, error) {
	if len(items) == 0 {
		return Envelope{}, errors.New("authn: empty batch")
	}
	if len(items) == 1 {
		return s.Shield(cq, items[0].Kind, items[0].Payload)
	}
	if s.enclave.Crashed() {
		return Envelope{}, tee.ErrEnclaveCrashed
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.send[cq]
	if !ok {
		return Envelope{}, fmt.Errorf("%w: %s", ErrUnknownChannel, cq)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	first := st.cnt + 1
	st.cnt += uint64(len(items))
	env := Envelope{
		View:    s.view,
		Epoch:   s.epoch,
		Channel: cq,
		Group:   st.group,
		Seq:     first,
		Batch:   true,
		Enc:     s.confidential,
	}
	st.hdr = env.appendHeader(st.hdr[:0])
	body := getBatchBody(items)
	s.enclave.ChargeTransition()
	if env.Enc {
		s.enclave.ChargeConfidential(len(body))
		sealed, err := sealPooled(st.aead, st.hdr, body)
		bufpool.Put(body)
		if err != nil {
			return Envelope{}, err
		}
		env.Payload = sealed
	} else {
		env.Payload = body
	}
	env.MAC = st.sealMAC(env.Payload)
	return env, nil
}

// Verify implements Algorithm 1's verify_request. On Delivered it returns the
// plaintext payloads of the message and of any consecutive buffered future
// messages that the arrival unblocked, in sequence order.
//
// The returned slice is the channel's reusable delivery buffer: it (and the
// envelopes in it) stay valid only until the next Verify or TickFutures on
// the same channel. Callers consume it synchronously or copy what they keep.
func (s *Shielder) Verify(env Envelope) (Status, []Envelope, error) {
	if s.enclave.Crashed() {
		return 0, nil, tee.ErrEnclaveCrashed
	}
	s.enclave.ChargeTransition()

	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.recv[env.Channel]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrUnknownChannel, env.Channel)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hdr = env.appendHeader(st.hdr[:0])
	st.mac.Reset()
	st.mac.Write(st.hdr)
	st.mac.Write(env.Payload)
	st.sum = st.mac.Sum(st.sum[:0])
	if !hmac.Equal(env.MAC, st.sum) {
		return 0, nil, ErrBadMAC
	}
	if env.Group != st.group {
		// The MAC is valid, so this is a genuine envelope of another shard
		// (same master key, same channel name) carried across the group
		// boundary — the cross-shard replay the group domain exists to stop.
		return 0, nil, fmt.Errorf("%w: got %d, channel bound to %d", ErrWrongGroup, env.Group, st.group)
	}
	if env.Epoch < s.epoch {
		// The MAC is valid, so this is genuine traffic of an older
		// configuration — captured before a reconfiguration and replayed
		// after it, or a sender that has not adopted the new map yet. Newer
		// epochs are accepted: a peer may legitimately learn the new
		// configuration before we do, and its channels are unchanged.
		return 0, nil, fmt.Errorf("%w: got %d, current %d", ErrStaleEpoch, env.Epoch, s.epoch)
	}
	if env.View != s.view {
		return 0, nil, fmt.Errorf("%w: got %d, current %d", ErrWrongView, env.View, s.view)
	}
	if env.Batch {
		return s.verifyBatch(st, env)
	}
	if env.Seq <= st.rcnt {
		return 0, nil, fmt.Errorf("%w: seq %d <= rcnt %d on %s", ErrReplay, env.Seq, st.rcnt, env.Channel)
	}
	if st.loose && env.Seq > st.rcnt+1 {
		plain, err := s.openPayload(st, env)
		if err != nil {
			return 0, nil, err
		}
		st.rcnt = env.Seq
		env.Payload = plain
		env.Enc = false
		st.delivered = append(st.delivered[:0], env)
		return Delivered, st.delivered, nil
	}
	if env.Seq > st.rcnt+1 {
		if _, dup := st.future[env.Seq]; !dup {
			if len(st.future) >= maxFutureBuffer || st.futureBytes+len(env.Payload) > maxFutureBytes {
				s.overflowDrops.Add(1)
				return 0, nil, ErrFutureOverflow
			}
			st.futureBytes += len(env.Payload)
			st.future[env.Seq] = env
		}
		return Buffered, nil, nil
	}

	// env.Seq == rcnt+1: deliver it and drain consecutive futures.
	plain, err := s.openPayload(st, env)
	if err != nil {
		return 0, nil, err
	}
	env.Payload = plain
	env.Enc = false
	st.delivered = append(st.delivered[:0], env)
	st.rcnt++
	st.delivered = s.drainFutures(st, st.delivered)
	return Delivered, st.delivered, nil
}

// verifyBatch processes an authenticated batch envelope: one MAC check and
// one decryption already happened (or happen here), then each contained
// message runs through the ordinary counter logic. Holds s.mu (shared) and
// st.mu.
func (s *Shielder) verifyBatch(st *recvState, env Envelope) (Status, []Envelope, error) {
	body, err := s.openPayload(st, env)
	if err != nil {
		return 0, nil, err
	}
	items, err := decodeBatchBody(st.items[:0], body)
	if err != nil {
		// The MAC was valid, so a malformed body means a broken (not
		// tampering) sender; reject it like any undecodable message.
		return 0, nil, fmt.Errorf("%w: %v", ErrBadMAC, err)
	}
	st.items = items[:0] // retain the (possibly grown) scratch capacity
	delivered := st.delivered[:0]
	buffered, overflow := false, false
	for i := range items {
		seq := env.Seq + uint64(i)
		if seq <= st.rcnt {
			continue // already-delivered fraction of a redelivered batch
		}
		m := Envelope{View: env.View, Epoch: env.Epoch, Channel: env.Channel, Group: env.Group,
			Seq: seq, Kind: items[i].Kind, Payload: items[i].Payload}
		switch {
		case st.loose || seq == st.rcnt+1:
			st.rcnt = seq
			delivered = append(delivered, m)
		default:
			if _, dup := st.future[seq]; !dup {
				if len(st.future) >= maxFutureBuffer || st.futureBytes+len(m.Payload) > maxFutureBytes {
					// Unlike the single-envelope path, part of the batch may
					// already have delivered or buffered, so the overflow
					// cannot always surface as an error; it is counted.
					s.overflowDrops.Add(1)
					overflow = true
					continue
				}
				st.futureBytes += len(m.Payload)
				st.future[seq] = m
			}
			buffered = true
		}
	}
	delivered = s.drainFutures(st, delivered)
	st.delivered = delivered
	switch {
	case len(delivered) > 0:
		return Delivered, delivered, nil
	case buffered:
		return Buffered, nil, nil
	case overflow:
		return 0, nil, ErrFutureOverflow
	default:
		return 0, nil, fmt.Errorf("%w: batch [%d,%d] <= rcnt %d on %s",
			ErrReplay, env.Seq, env.Seq+uint64(len(items))-1, st.rcnt, env.Channel)
	}
}

// drainFutures appends the consecutive run of buffered future messages
// starting at rcnt+1 to delivered, advancing rcnt. Holds st.mu.
func (s *Shielder) drainFutures(st *recvState, delivered []Envelope) []Envelope {
	for {
		next, ok := st.future[st.rcnt+1]
		if !ok {
			return delivered
		}
		delete(st.future, st.rcnt+1)
		st.futureBytes -= len(next.Payload)
		st.rcnt++
		plain, err := s.openPayload(st, next)
		if err != nil {
			continue // undecryptable: count it consumed, drop it
		}
		next.Payload = plain
		next.Enc = false
		delivered = append(delivered, next)
	}
}

// openPayload decrypts the payload in confidential mode. Must hold st.mu.
func (s *Shielder) openPayload(st *recvState, env Envelope) ([]byte, error) {
	if !env.Enc {
		return env.Payload, nil
	}
	s.enclave.ChargeConfidential(len(env.Payload))
	if st.aead == nil {
		return nil, fmt.Errorf("authn: encrypted payload on non-confidential channel %s", env.Channel)
	}
	ns := st.aead.NonceSize()
	if len(env.Payload) < ns {
		return nil, ErrBadMAC
	}
	st.hdr = env.appendHeader(st.hdr[:0])
	plain, err := st.aead.Open(nil, env.Payload[:ns], env.Payload[ns:], st.hdr)
	if err != nil {
		return nil, ErrBadMAC
	}
	return plain, nil
}

// TickFutures ages every channel's future buffer and, for channels whose
// buffer stayed non-empty for threshold consecutive ticks, skips the
// sequence gap: rcnt jumps to just before the smallest buffered counter and
// the consecutive run from there is delivered. This is the paper's
// "periodically applies the queued requests eligible for execution" —
// without it, a single packet lost on the unreliable network would strand a
// channel forever. Replay protection is unaffected: rcnt only moves forward.
//
// The returned slice is freshly allocated (it spans channels), but the
// envelopes' payloads may alias received packet buffers like any delivery.
func (s *Shielder) TickFutures(threshold int) []Envelope {
	if s.enclave.Crashed() {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Envelope
	for _, st := range s.recv {
		st.mu.Lock()
		if len(st.future) == 0 {
			st.age = 0
			st.mu.Unlock()
			continue
		}
		st.age++
		if st.age < threshold {
			st.mu.Unlock()
			continue
		}
		st.age = 0
		lowest := uint64(0)
		for seq := range st.future {
			if lowest == 0 || seq < lowest {
				lowest = seq
			}
		}
		st.rcnt = lowest - 1
		out = s.drainFutures(st, out)
		st.mu.Unlock()
	}
	return out
}

// OverflowDrops returns how many authenticated messages have been discarded
// because a channel's future buffer hit its count or byte bound
// (observability for metrics; the batch verify path cannot always surface
// overflow as an error).
func (s *Shielder) OverflowDrops() uint64 {
	return s.overflowDrops.Load()
}

// PendingFuture returns how many out-of-order messages are buffered for cq
// (observability for tests and metrics).
func (s *Shielder) PendingFuture(cq string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.recv[cq]
	if !ok {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.future)
}

// PendingFutureBytes returns how many payload bytes are parked in cq's
// future buffer (observability for the byte budget).
func (s *Shielder) PendingFutureBytes(cq string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.recv[cq]
	if !ok {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.futureBytes
}

// LastDelivered returns rcnt for the channel.
func (s *Shielder) LastDelivered(cq string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.recv[cq]
	if !ok {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rcnt
}
