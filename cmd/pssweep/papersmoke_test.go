//go:build papersmoke

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parastack/internal/paper"
)

// TestPaperSmoke is the byte-identity gate behind `make paper-smoke`.
// The goldens in testdata were captured from the tools pssweep -grid
// paper replaced, at the same small campaign counts, so every table and
// figure must come out byte for byte as it did before.
func TestPaperSmoke(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "paper.jsonl")
	want := readGolden(t, "paper.golden")

	// 1. The whole evaluation, executed into a fresh log.
	if got, _ := paperRun(t, "-out", log); got != want {
		t.Fatalf("full paper output differs from testdata/paper.golden:\n%s", got)
	}

	// 2. Every table alone, replayed from that log: nothing executes,
	// and the tables joined by blank lines are the full output.
	parts := make([]string, 0, len(paper.Tables))
	for _, a := range paper.Tables {
		got, summary := paperRun(t, "-out", log, "-resume", "-table", a.Name)
		if !strings.Contains(summary, "(0 executed") {
			t.Errorf("-table %s -resume executed runs: %s", a.Name, summary)
		}
		parts = append(parts, got)
	}
	if got := strings.Join(parts, "\n"); got != want {
		t.Errorf("per-table replays joined differ from the full output:\n%s", got)
	}

	// 3. Every figure, against the hashes of the captured series.
	hashes := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(readGolden(t, "figures.sha256")), "\n") {
		f := strings.Fields(line)
		hashes[f[1]] = f[0]
	}
	for _, a := range paper.Figures {
		got, _ := paperRun(t, "-out", filepath.Join(dir, "fig"+a.Name+".jsonl"), "-fig", a.Name)
		sum := sha256.Sum256([]byte(got))
		if h := hex.EncodeToString(sum[:]); h != hashes["fig"+a.Name] {
			t.Errorf("-fig %s hashes to %s, want %s", a.Name, h, hashes["fig"+a.Name])
		}
	}

	// 4. A traced rerun: tracing never changes the output, and the trace
	// is JSONL with a timestamp and a kind on every line.
	trace := filepath.Join(dir, "trace.jsonl")
	if got, _ := paperRun(t, "-out", filepath.Join(dir, "traced.jsonl"), "-trace", trace); got != want {
		t.Errorf("traced paper output differs from testdata/paper.golden:\n%s", got)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d: %v: %s", n+1, err, sc.Text())
		}
		if _, ok := ev["t_us"]; !ok {
			t.Fatalf("trace line %d has no t_us: %s", n+1, sc.Text())
		}
		if _, ok := ev["kind"]; !ok {
			t.Fatalf("trace line %d has no kind: %s", n+1, sc.Text())
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("trace is empty")
	}
	t.Logf("trace: %d events", n)
}
