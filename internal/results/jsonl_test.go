package results

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	l, err := OpenJSONL(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a":1}`, `{"b":2}`, `{"c":3}`}
	for _, p := range want {
		if err := l.Append(Record{Key: "k", Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	// Reads its own (already synced — syncEvery 1) writes.
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("records = %d, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r.Payload) != want[i] {
			t.Errorf("record %d = %q, want %q", i, r.Payload, want[i])
		}
		if r.Key != "" {
			t.Errorf("record %d key = %q, want empty (keys are not persisted)", i, r.Key)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(Record{Payload: []byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	// Reopen appends rather than truncating.
	l2, err := OpenJSONL(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(Record{Payload: []byte(`{"d":4}`)}); err != nil {
		t.Fatal(err)
	}
	recs, err = l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want)+1 {
		t.Fatalf("records after reopen+append = %d, want %d", len(recs), len(want)+1)
	}
}

func TestJSONLLagAndFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	l, err := OpenJSONL(path, 100) // large sync batch: appends stay lagged
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Payload: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Lag(); got != 3 {
		t.Fatalf("lag = %d, want 3", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Lag(); got != 0 {
		t.Fatalf("lag after flush = %d, want 0", got)
	}
	// Records syncs pending appends first, so a lagging sink still
	// reads its own writes.
	if err := l.Append(Record{Payload: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	if got := l.Lag(); got != 0 {
		t.Fatalf("lag after Records = %d, want 0", got)
	}
}

func TestReadJSONLTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	// A hard kill mid-write leaves a final line with no newline; it must
	// be dropped, not returned or erred on.
	if err := os.WriteFile(path, []byte("{\"a\":1}\n\n{\"b\":2}\n{\"torn\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (torn final line dropped, empty line skipped)", len(recs))
	}
	if string(recs[1].Payload) != `{"b":2}` {
		t.Fatalf("record 1 = %q", recs[1].Payload)
	}
}

func TestReadJSONLMissingFile(t *testing.T) {
	recs, err := ReadJSONL(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing file = (%v, %v), want (nil, nil)", recs, err)
	}
}

// TestJSONLTornWriteWalk cuts a K-record file at every byte offset —
// every point a crash can stop a write — then reopens it, appends one
// record and reads it back. The crash rule says exactly the records
// whose newline lies at or before the cut survive, followed by the new
// one on a line of its own.
func TestJSONLTornWriteWalk(t *testing.T) {
	// The long record makes some tails longer than the 4 KiB block the
	// open-time scan reads back from the end.
	long := `{"long":"` + strings.Repeat("x", 4200) + `"}`
	payloads := []string{`{"a":1}`, `{"bb":[2,2]}`, long, `{"dddd":4}`}
	var file []byte
	var ends []int // offset just past each record's newline
	for i, p := range payloads {
		file = append(file, p...)
		file = append(file, '\n')
		ends = append(ends, len(file))
		if i == 1 {
			file = append(file, '\n') // a blank line is no record
		}
	}
	path := filepath.Join(t.TempDir(), "walk.jsonl")
	const fresh = `{"new":true}`
	for n := 0; n <= len(file); n++ {
		if err := os.WriteFile(path, file[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenJSONL(path, 1)
		if err != nil {
			t.Fatalf("cut %d: open: %v", n, err)
		}
		if err := l.Append(Record{Payload: []byte(fresh)}); err != nil {
			t.Fatalf("cut %d: append: %v", n, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", n, err)
		}
		var want []string
		for i, end := range ends {
			if end <= n {
				want = append(want, payloads[i])
			}
		}
		want = append(want, fresh)
		recs, err := ReadJSONL(path)
		if err != nil {
			t.Fatalf("cut %d: read: %v", n, err)
		}
		got := make([]string, len(recs))
		for i, r := range recs {
			got[i] = string(r.Payload)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("cut %d: read back %q, want %q", n, got, want)
		}
	}
}
