// Package tee implements a software-simulated Trusted Execution Environment
// with the subset of SGX-like functionality Recipe depends on: enclave
// creation with code measurement, hardware-key derivation (EGETKEY),
// local/remote attestation reports and quotes, and a trusted lease
// primitive. Sealed durable state lives in internal/seal, keyed from the
// CAS-provisioned master secret and anchored at the CAS registrar.
//
// Fault model: enclaves are crash-only. Once an enclave has crashed every
// operation returns ErrEnclaveCrashed; there is no way to resurrect an
// enclave instance (recovered nodes create fresh enclaves and re-attest, per
// the paper's recovery protocol).
//
// The package also carries the calibrated cost model that stands in for the
// two performance effects the paper measures on real SGX hardware: the cost
// of enclave transitions (world switches) and EPC paging pressure when the
// enclave working set grows. The cost model performs real cryptographic work
// (SHA-256 churn) so that benchmarks measure genuine relative shapes rather
// than asserted constants.
package tee
