package sweep

import (
	"errors"
	"path/filepath"
	"testing"

	"parastack/internal/results"
)

func TestLogClosedState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	l, err := CreateLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Write(Record{Schema: SchemaVersion, Key: "a", Status: StatusOK}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Write after Close is the shutdown race; it must be the sentinel,
	// not a raw "file already closed" I/O error.
	if err := l.Write(Record{Schema: SchemaVersion, Key: "b"}); !errors.Is(err, results.ErrClosed) {
		t.Fatalf("write-after-close error = %v, want results.ErrClosed", err)
	}
	// Close is idempotent so every CLI exit path can close unconditionally.
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The record written before Close survived; the rejected one did not.
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "a" {
		t.Fatalf("log holds %+v, want exactly the pre-close record", recs)
	}
}

func TestLiteralRetries(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, NoRetries},  // literal 0: the user said zero retries
		{-1, NoRetries}, // negative is already "none"
		{1, 1},          // positive passes through
		{5, 5},          //
		{NoRetries, NoRetries},
	}
	for _, c := range cases {
		if got := LiteralRetries(c.in); got != c.want {
			t.Errorf("LiteralRetries(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// The Options zero value must keep meaning DefaultRetries so
	// zero-struct callers keep the old behavior.
	o := Options{}.withDefaults()
	if o.Retries != DefaultRetries {
		t.Errorf("zero Options retries = %d, want DefaultRetries (%d)", o.Retries, DefaultRetries)
	}
	// And the mapped "literal 0" must come through as none (normalized
	// to an internal 0 — zero re-executions), not as the default.
	o = Options{Retries: LiteralRetries(0)}.withDefaults()
	if o.Retries != 0 {
		t.Errorf("literal-0 retries normalized to %d, want 0", o.Retries)
	}
}
