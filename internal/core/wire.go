package core

import (
	"fmt"

	"recipe/internal/codec"
	"recipe/internal/kvstore"
)

// Op is a client operation type.
type Op byte

// Client operations.
const (
	// OpPut writes a key.
	OpPut Op = iota + 1
	// OpGet reads a key.
	OpGet
	// OpDelete removes a key. Deletes replicate like writes; deleting an
	// absent key succeeds (idempotent).
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Command is one client request as seen by the replication protocol.
type Command struct {
	Op         Op
	Key        string
	Value      []byte
	ClientID   string
	ClientAddr string // transport address for the reply
	Seq        uint64 // per-client request sequence (dedup)
}

// Result is the outcome of a command.
type Result struct {
	OK      bool
	Err     string
	Value   []byte
	Version kvstore.Version
}

// Reserved message kinds used by the Recipe layer itself. Protocol-specific
// kinds must start at KindProtocolBase.
const (
	// KindClientReq carries a Command from a client to a coordinator.
	KindClientReq uint16 = 1
	// KindClientResp carries a Result back to the client.
	KindClientResp uint16 = 2
	// KindRedirect tells a client which node currently coordinates.
	KindRedirect uint16 = 3
	// KindStateReq asks a live replica for a state-transfer page.
	KindStateReq uint16 = 4
	// KindStateResp carries one state-transfer page.
	KindStateResp uint16 = 5
	// KindJoin announces a freshly attested node to the membership.
	KindJoin uint16 = 6
	// KindEpochNotice tells a stale-configuration client the current epoch:
	// Term carries the epoch and Value the encoded signed shard map, so the
	// client can verify, refresh its routing table, and retry — instead of
	// spinning against a partition function that no longer exists.
	KindEpochNotice uint16 = 7
	// KindPing is a failure-detector probe: Index carries the probe nonce
	// (echoed by the ack), Value piggybacks membership gossip, and Key — when
	// set — names the origin of an indirect probe this message relays, which
	// must be acked too.
	KindPing uint16 = 8
	// KindPingAck answers a KindPing: Index echoes the nonce, Value
	// piggybacks gossip.
	KindPingAck uint16 = 9
	// KindPingReq asks a relay to ping Key on the sender's behalf (SWIM
	// indirect probe); Index carries the origin's nonce.
	KindPingReq uint16 = 10
	// KindBusy tells a client its op was shed by the admission gate: Index
	// echoes the request sequence. Distinguishable from failure — the op was
	// never submitted, so the client retries after backoff without rotating.
	KindBusy uint16 = 11
	// KindLeaseWidth announces the leader's proposed lease width (Index, in
	// nanoseconds) to followers; they widen/narrow their grantor-side grants
	// and ack.
	KindLeaseWidth uint16 = 12
	// KindLeaseWidthAck confirms a follower adopted the announced width
	// (Index echoes it). The leader widens its holder-side width only once
	// every live follower acked — the safe adoption order.
	KindLeaseWidthAck uint16 = 13
	// KindProtocolBase is the first kind available to protocols.
	KindProtocolBase uint16 = 100
)

// Wire is the single message shape shared by all protocols in this
// repository. Using one generic message keeps the codec small; each protocol
// uses the subset of fields it needs. Kind dispatches handling.
//
// The encoding (internal/codec) is canonical varints throughout:
//
//	flags kind group epoch term index commit ts.TS ts.Writer from key value
//	[cmd] ncmds cmds... [res]
//
// The flags byte comes first and carries only the bits flagOK, flagCmd and
// flagRes, so a Wire always starts with a byte in 0–7. That range is
// disjoint from the authn envelope's first byte (0xA0–0xA3) and from the
// netstack multiframe magic's 0x52, which keeps the three formats
// distinguishable by their first byte. Integers are unsigned varints (kind,
// group and every uint64 field), strings and byte slices carry a varint
// length, and the optional sections appear only when their flag is set:
//
//	Command: op(1 byte) seq key value clientID clientAddr
//	Result:  ok(0|1) version.TS version.Writer err value
//
// Decoding rejects non-minimal varints, unknown flag bits and trailing
// bytes, so a message decodes only if it re-encodes to the same bytes.
type Wire struct {
	Kind   uint16
	Group  uint32 // replication group (shard) the message addresses
	Epoch  uint64 // configuration epoch the sender routed under
	From   string
	Term   uint64 // term / view / epoch / round
	Index  uint64 // log index / sequence / round-local slot
	Commit uint64 // commit index (leader-based protocols)
	TS     kvstore.Version
	OK     bool
	Key    string
	Value  []byte
	Cmd    *Command
	Cmds   []Command // batches (e.g. AppendEntries)
	Res    *Result
}

// minEncodedCommand is the smallest encoded Command: op (1), four one-byte
// length prefixes, and a one-byte sequence number.
const minEncodedCommand = 6

// flag bits for optional Wire fields.
const (
	flagOK byte = 1 << iota
	flagCmd
	flagRes
)

// EncodedSize returns the exact encoded length of the message, so callers
// can size a reused or pooled buffer before AppendTo.
func (w *Wire) EncodedSize() int {
	size := 1 + codec.UvarintSize(uint64(w.Kind)) + codec.UvarintSize(uint64(w.Group)) +
		codec.UvarintSize(w.Epoch) + codec.BytesSize(len(w.From)) +
		codec.UvarintSize(w.Term) + codec.UvarintSize(w.Index) + codec.UvarintSize(w.Commit) +
		codec.UvarintSize(w.TS.TS) + codec.UvarintSize(w.TS.Writer) +
		codec.BytesSize(len(w.Key)) + codec.BytesSize(len(w.Value)) +
		codec.UvarintSize(uint64(len(w.Cmds)))
	if w.Cmd != nil {
		size += encodedCommandSize(w.Cmd)
	}
	for i := range w.Cmds {
		size += encodedCommandSize(&w.Cmds[i])
	}
	if r := w.Res; r != nil {
		size += 1 + codec.BytesSize(len(r.Err)) + codec.BytesSize(len(r.Value)) +
			codec.UvarintSize(r.Version.TS) + codec.UvarintSize(r.Version.Writer)
	}
	return size
}

func encodedCommandSize(c *Command) int {
	return 1 + codec.BytesSize(len(c.Key)) + codec.BytesSize(len(c.Value)) +
		codec.BytesSize(len(c.ClientID)) + codec.BytesSize(len(c.ClientAddr)) + codec.UvarintSize(c.Seq)
}

// Encode serialises the message into a fresh buffer.
func (w *Wire) Encode() []byte {
	return w.AppendTo(make([]byte, 0, w.EncodedSize()))
}

// AppendTo serialises the message, appending to buf and returning the
// extended slice. It is the allocation-free encoder of the node's send and
// flush loops: with a reused or pooled buffer of sufficient capacity it
// performs no heap allocation.
func (w *Wire) AppendTo(buf []byte) []byte {
	var flags byte
	if w.OK {
		flags |= flagOK
	}
	if w.Cmd != nil {
		flags |= flagCmd
	}
	if w.Res != nil {
		flags |= flagRes
	}
	buf = append(buf, flags)
	buf = codec.AppendUvarint(buf, uint64(w.Kind))
	buf = codec.AppendUvarint(buf, uint64(w.Group))
	buf = codec.AppendUvarint(buf, w.Epoch)
	buf = codec.AppendUvarint(buf, w.Term)
	buf = codec.AppendUvarint(buf, w.Index)
	buf = codec.AppendUvarint(buf, w.Commit)
	buf = codec.AppendUvarint(buf, w.TS.TS)
	buf = codec.AppendUvarint(buf, w.TS.Writer)
	buf = codec.AppendString(buf, w.From)
	buf = codec.AppendString(buf, w.Key)
	buf = codec.AppendBytes(buf, w.Value)
	if w.Cmd != nil {
		buf = appendCommand(buf, w.Cmd)
	}
	buf = codec.AppendUvarint(buf, uint64(len(w.Cmds)))
	for i := range w.Cmds {
		buf = appendCommand(buf, &w.Cmds[i])
	}
	if r := w.Res; r != nil {
		buf = codec.AppendBool(buf, r.OK)
		buf = codec.AppendUvarint(buf, r.Version.TS)
		buf = codec.AppendUvarint(buf, r.Version.Writer)
		buf = codec.AppendString(buf, r.Err)
		buf = codec.AppendBytes(buf, r.Value)
	}
	return buf
}

func appendCommand(buf []byte, c *Command) []byte {
	buf = append(buf, byte(c.Op))
	buf = codec.AppendUvarint(buf, c.Seq)
	buf = codec.AppendString(buf, c.Key)
	buf = codec.AppendBytes(buf, c.Value)
	buf = codec.AppendString(buf, c.ClientID)
	return codec.AppendString(buf, c.ClientAddr)
}

// DecodeWire parses a wire message. Counts are bounded by the input before
// anything is allocated for them; see internal/codec.
func DecodeWire(data []byte) (*Wire, error) {
	r := codec.NewReader(data)
	flags := r.Byte()
	if flags&^(flagOK|flagCmd|flagRes) != 0 {
		return nil, fmt.Errorf("decode wire: unknown flags %#x", flags)
	}
	var w Wire
	w.Kind = r.Uint16()
	w.Group = r.Uint32()
	r.Uvarints(&w.Epoch, &w.Term, &w.Index, &w.Commit, &w.TS.TS, &w.TS.Writer)
	w.From = r.String()
	w.Key = r.String()
	w.Value = r.Bytes()
	w.OK = flags&flagOK != 0
	if flags&flagCmd != 0 {
		w.Cmd = new(Command)
		readCommand(&r, w.Cmd)
	}
	if n := r.Count(minEncodedCommand); n > 0 {
		w.Cmds = make([]Command, n)
		for i := range w.Cmds {
			readCommand(&r, &w.Cmds[i])
		}
	}
	if flags&flagRes != 0 {
		res := &Result{}
		res.OK = r.Bool()
		r.Uvarints(&res.Version.TS, &res.Version.Writer)
		res.Err = r.String()
		res.Value = r.Bytes()
		w.Res = res
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode wire: %w", err)
	}
	return &w, nil
}

func readCommand(r *codec.Reader, c *Command) {
	c.Op = Op(r.Byte())
	c.Seq = r.Uvarint()
	c.Key = r.String()
	c.Value = r.Bytes()
	c.ClientID = r.String()
	c.ClientAddr = r.String()
}
