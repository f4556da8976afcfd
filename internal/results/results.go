// Package results defines the unified results-sink API: the small,
// dependency-free contract every durable results consumer in the
// repository satisfies. The plain-file JSONL log (JSONL), the
// tamper-evident Merkle ledger (internal/ledger.Ledger), and any
// future backend (an object store, a network forwarder) all implement
// Sink, so the sweep orchestrator and the detection service write
// terminal records through one interface instead of a concrete log
// type.
//
// The package is a deliberate leaf: it imports only the standard
// library, so any layer — sweep, service, ledger, a CLI — can depend
// on it without cycles. Besides the contract it ships the repository's
// one append-only log implementation, the JSONL sink and its reader
// (see jsonl.go): the sweep's results log wraps it with a schema, and
// the detection service uses it as its default admission journal. Its
// crash rule — a record is committed iff its trailing newline is
// durable — is stated once, on JSONL, and argued in DESIGN.md §10.
package results

import "errors"

// ErrClosed is the shared write-after-close sentinel: Append on any
// closed Sink returns an error satisfying errors.Is(err, ErrClosed).
// Callers racing a shutdown use it to distinguish "the sink is gone,
// drop or re-route the record" from a real I/O failure.
var ErrClosed = errors.New("results: sink is closed")

// Record is one terminal result in transit: a stable cell key plus the
// serialized record (one JSON object, no trailing newline). The payload
// is opaque to sinks — a JSONL log writes it verbatim as a line, a
// ledger content-addresses and Merkle-commits it — which is what keeps
// every backend bit-identical at the record level.
type Record struct {
	// Key is the record's stable identity: a sweep cell key, a campaign
	// fingerprint key, or a service verdict key. Sinks that deduplicate
	// or index (the ledger) do so by this string; sinks that don't (the
	// JSONL log) ignore it.
	Key string
	// Payload is the serialized record. Sinks must not retain or
	// mutate it after Append returns.
	Payload []byte
}

// Sink consumes terminal result records. Implementations must be safe
// for concurrent Append calls (sweep workers write from many
// goroutines), must make Append after Close return ErrClosed, and must
// make a second Close a no-op returning nil so every exit path of a
// CLI can close unconditionally.
type Sink interface {
	// Append durably accepts one record. Implementations may buffer
	// and batch; Close flushes whatever is pending.
	Append(Record) error
	// Close flushes buffered records and releases the sink.
	Close() error
}

// Reader yields previously written records. A Sink that also
// implements Reader supports resume: the sweep loads its prior records
// through it and skips completed cells (last record per key wins, the
// same contract as the JSONL log), and the detection service replays
// its admission journal through it on a crash-recovery boot.
type Reader interface {
	// Records returns every record in append order.
	Records() ([]Record, error)
}

// Flusher is the optional durability hook a Sink may offer: Flush
// forces buffered records onto stable storage without closing the
// sink. The service's drain-deadline path uses it to pin straggler
// admissions down before a forced exit; callers must tolerate sinks
// that don't implement it (their Append is then assumed durable or
// best-effort by construction).
type Flusher interface {
	Flush() error
}

// Lagger is the optional health hook a Sink may offer: Lag reports how
// many accepted records are not yet durable — the crash-loss window.
// The daemon's /healthz surfaces it as journal lag.
type Lagger interface {
	Lag() int
}
