// Package netstack is Recipe's communication substrate. It provides:
//
//   - an in-process switched fabric with per-node endpoints and an
//     explicitly unreliable delivery model (messages can be dropped,
//     duplicated, delayed, reordered, tampered with, or replayed by a
//     configurable Byzantine fault injector — the paper's untrusted network);
//   - calibrated per-message cost models for the five network stacks the
//     paper compares in Fig 6b (kernel sockets and direct I/O, native and
//     inside a TEE, plus the shielded recipe-lib stack);
//   - a real TCP transport with the same Transport interface for the cmd/
//     tools, so clusters can also run as separate OS processes;
//   - per-peer send queues (BatchSender) on both transports: queued sends
//     flush as single multiframe packets, paying the stack's per-packet
//     cost once per peer per flush instead of once per message.
//
// The data plane is pooled where ownership allows: flushes return frame
// buffers they have copied onward to the shared pool (internal/bufpool) and
// reuse their queue structure across flushes, the TCP transport stages its
// length-prefixed frames in pooled buffers, and the Byzantine fault injector
// forwards packets untouched — no lock, no replay-history deep copy — when
// every fault rate is zero (the common benchmark configuration). Fault
// injection, when configured, always corrupts copies, never the sender's
// buffers.
package netstack
