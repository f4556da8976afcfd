package sweep

import (
	"encoding/json"
	"fmt"
	"os"

	"parastack/internal/experiment"
	"parastack/internal/results"
)

// SchemaVersion tags every results-log record; Load rejects logs
// written by an incompatible schema. The record format is one JSON
// object per line (see Record and the EXPERIMENTS.md "Sweep results
// log" entry for the field-by-field schema).
const SchemaVersion = "parastack-sweep/v1"

// Terminal record statuses.
const (
	// StatusOK marks a run that completed (its Result field is set).
	StatusOK = "ok"
	// StatusFailed marks a run that panicked on every attempt; Error
	// holds the last panic message. Failed cells are terminal: resume
	// does not re-execute them (runs are deterministic, so they would
	// fail again).
	StatusFailed = "failed"
)

// Record is one line of the results log: the terminal outcome of one
// cell. A sweep appends exactly one record per executed cell; on
// resume, the last record for a key wins.
type Record struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// Key is the cell's stable identity (Cell.Key, or the campaign
	// fingerprint key for orchestrated campaigns).
	Key string `json:"key"`
	// Index is the cell's position in the expansion order; results are
	// re-assembled in index order so aggregation is order-stable.
	Index int `json:"index"`
	// Status is StatusOK or StatusFailed.
	Status string `json:"status"`
	// Attempts is how many executions the cell took (retries included).
	Attempts int `json:"attempts"`
	// Error is the last panic message of a failed cell.
	Error string `json:"error,omitempty"`
	// Result is the run's full outcome (StatusOK only).
	Result *experiment.RunResult `json:"result,omitempty"`
}

// Log is the durable results log: a results.JSONL whose lines are
// marshalled Records. Records are fsync'd in batches (every SyncEvery
// records and on Close), bounding both the syscall rate and the amount
// of work a crash can lose; what a crash keeps is the JSONL crash rule
// (DESIGN.md §10). Write is safe for concurrent use by a sweep's
// workers.
type Log struct {
	*results.JSONL
}

// defaultSyncEvery is the fsync batch size when Options leave it zero.
const defaultSyncEvery = 16

// CreateLog opens a fresh results log at path, truncating any old one.
// syncEvery is the fsync batch size (<= 0 selects 16).
func CreateLog(path string, syncEvery int) (*Log, error) {
	if err := os.Truncate(path, 0); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return openLog(path, syncEvery)
}

// openLog opens the results log at path for appending (the resume
// path), creating it if absent; results.OpenJSONL cuts a torn tail.
func openLog(path string, syncEvery int) (*Log, error) {
	if syncEvery <= 0 {
		syncEvery = defaultSyncEvery
	}
	j, err := results.OpenJSONL(path, syncEvery)
	if err != nil {
		return nil, err
	}
	return &Log{j}, nil
}

// Write marshals and appends one record, fsyncing if the batch is due.
// Writing to a closed log returns results.ErrClosed without touching
// the file.
func (l *Log) Write(rec Record) error {
	return writeRecord(l, rec)
}

// Load reads every committed record of a results log; a missing file
// is an error. An unterminated final line is not committed (the JSONL
// crash rule) and is dropped; any other malformed or schema-mismatched
// line is an error, so silent corruption cannot masquerade as
// completed work.
func Load(path string) ([]Record, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	recs, err := results.ReadJSONL(path)
	if err != nil {
		return nil, err
	}
	out, err := decode(recs)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s %w", path, err)
	}
	return out, nil
}

// decode unmarshals and schema-checks stored records, in order. Load
// and every resume share it, so resuming from a ledger accepts exactly
// the records that loading the JSONL log it replaces would.
func decode(recs []results.Record) ([]Record, error) {
	out := make([]Record, len(recs))
	for i, rr := range recs {
		if err := json.Unmarshal(rr.Payload, &out[i]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i+1, err)
		}
		if out[i].Schema != SchemaVersion {
			return nil, fmt.Errorf("record %d: schema %q, want %q", i+1, out[i].Schema, SchemaVersion)
		}
	}
	return out, nil
}

// readPrior builds the resume index from any results.Reader (the JSONL
// log at Options.Out, or a ledger): the last record per key wins.
func readPrior(r results.Reader) (map[string]Record, error) {
	recs, err := r.Records()
	if err != nil {
		return nil, err
	}
	decoded, err := decode(recs)
	if err != nil {
		return nil, fmt.Errorf("sweep: resume: %w", err)
	}
	prior := make(map[string]Record, len(decoded))
	for _, rec := range decoded {
		prior[rec.Key] = rec
	}
	return prior, nil
}
