package tee

import (
	"encoding/binary"
	"sync/atomic"
)

// Report is the enclave-signed attestation evidence (SGX REPORT): the code
// measurement plus 64 bytes of caller-chosen report data (Recipe binds the
// attestation nonce and the enclave's DH public key here).
type Report struct {
	Measurement Measurement
	EnclaveID   uint64
	ReportData  [64]byte
}

func (r Report) encode() []byte {
	buf := make([]byte, 0, 32+8+64)
	buf = append(buf, r.Measurement[:]...)
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], r.EnclaveID)
	buf = append(buf, id[:]...)
	buf = append(buf, r.ReportData[:]...)
	return buf
}

// Quote is a Report signed by the platform's quoting identity, verifiable by
// a remote party that holds the platform's quote public key.
type Quote struct {
	Report    Report
	Signature []byte
}

// Enclave is one simulated trusted execution environment instance. All state
// that the paper places "inside the TEE" (keys, counters, client tables,
// uncommitted queues, KV metadata) is owned by an Enclave; everything else is
// untrusted host memory.
type Enclave struct {
	platform    *Platform
	id          uint64
	measurement Measurement
	crashed     atomic.Bool

	// residentBytes approximates the enclave working set, feeding the EPC
	// paging cost model.
	residentBytes atomic.Int64
}

// NewEnclave loads code into a new enclave on the platform. The measurement
// is derived from the code blob, so two enclaves running the same code attest
// to the same identity.
func (p *Platform) NewEnclave(code []byte) *Enclave {
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.mu.Unlock()

	m := MeasureCode(code)
	e := &Enclave{
		platform:    p,
		id:          id,
		measurement: m,
	}
	p.mu.Lock()
	p.enclaves[id] = e
	p.mu.Unlock()
	return e
}

// ID returns the enclave's platform-local identifier.
func (e *Enclave) ID() uint64 { return e.id }

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Platform returns the platform hosting this enclave.
func (e *Enclave) Platform() *Platform { return e.platform }

// Crash transitions the enclave to its terminal crashed state. Crash-only is
// the TEE fault model of the paper (§3.1): enclaves never behave arbitrarily.
func (e *Enclave) Crash() { e.crashed.Store(true) }

// Crashed reports whether the enclave has crashed.
func (e *Enclave) Crashed() bool { return e.crashed.Load() }

func (e *Enclave) check() error {
	if e.crashed.Load() {
		return ErrEnclaveCrashed
	}
	return nil
}

// Attest produces a local attestation report over the given report data
// (Algorithm 2's attest()).
func (e *Enclave) Attest(reportData []byte) (Report, error) {
	if err := e.check(); err != nil {
		return Report{}, err
	}
	e.platform.costs.ChargeTransition()
	r := Report{Measurement: e.measurement, EnclaveID: e.id}
	copy(r.ReportData[:], reportData)
	return r, nil
}

// GenerateQuote signs a report with the platform quoting key, producing
// remotely verifiable evidence (Algorithm 2's generate_quote()).
func (e *Enclave) GenerateQuote(reportData []byte) (Quote, error) {
	r, err := e.Attest(reportData)
	if err != nil {
		return Quote{}, err
	}
	e.platform.costs.ChargeTransition()
	return Quote{Report: r, Signature: e.platform.signQuote(r.encode())}, nil
}

// DeriveKey returns a secret key bound to this enclave's measurement and the
// caller-supplied label (EGETKEY). Two enclaves with the same measurement on
// the same platform derive the same key; different code cannot.
func (e *Enclave) DeriveKey(label string) ([]byte, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.platform.deriveKey(e.measurement, label), nil
}

// ChargeResident adjusts the enclave's tracked working-set size and charges
// paging cost when the working set exceeds the modelled EPC. The KV store
// calls this when keys/metadata move in and out of the protected area.
func (e *Enclave) ChargeResident(delta int) {
	n := e.residentBytes.Add(int64(delta))
	if delta > 0 {
		e.platform.costs.ChargeEPC(n, delta)
	}
}

// ResidentBytes returns the modelled enclave working-set size.
func (e *Enclave) ResidentBytes() int64 { return e.residentBytes.Load() }

// ChargeTransition charges one enclave world-switch; layers above use it for
// every host<->enclave boundary crossing they model (e.g. the network stack
// handing a DMA-ed buffer to the protocol running in the enclave).
func (e *Enclave) ChargeTransition() { e.platform.costs.ChargeTransition() }

// ChargeConfidential charges the staging/encryption cost of moving n bytes
// across the enclave boundary in confidential mode.
func (e *Enclave) ChargeConfidential(n int) { e.platform.costs.ChargeConfidential(n) }
