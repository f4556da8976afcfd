package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// paperRun runs pssweep in paper mode at the small campaign counts the
// goldens were captured at, with args appended, and returns its stdout
// split into the artefact output and the final "paper sweep:" summary.
func paperRun(t *testing.T, args ...string) (output, summary string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-grid", "paper", "-runs", "1", "-maxscale", "256"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("pssweep %v exited %d:\n%s", args, code, stderr.String())
	}
	s := stdout.String()
	i := strings.LastIndex(strings.TrimSuffix(s, "\n"), "\n") + 1
	if !strings.HasPrefix(s[i:], "paper sweep: ") {
		t.Fatalf("pssweep %v: last line is not the summary:\n%s", args, s)
	}
	return s[:i], s[i:]
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRejectsBadSelections pins the usage errors: each case exits 2
// with usage on stderr, prints nothing on stdout, and runs nothing, so
// not even the results log is created.
func TestRejectsBadSelections(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "log.jsonl")
	paper := []string{"-grid", "paper", "-out", out}
	smoke := []string{"-grid", "smoke", "-out", out}
	cases := []struct {
		name string
		args []string
	}{
		{"table without a generator", append(paper, "-table", "2")},
		{"table past the last", append(paper, "-table", "11")},
		{"figure without a generator", append(paper, "-fig", "6")},
		{"table and figure", append(paper, "-table", "3", "-fig", "5")},
		{"table outside paper mode", append(smoke, "-table", "3")},
		{"figure outside paper mode", append(smoke, "-fig", "5")},
		{"trace outside paper mode", append(smoke, "-trace", filepath.Join(dir, "t.jsonl"))},
		{"unwritable trace", append(paper, "-table", "3", "-trace", filepath.Join(dir, "missing", "t.jsonl"))},
		{"chaos in paper mode", append(paper, "-chaos", "none,heavy")},
		{"no destination", []string{"-grid", "paper", "-table", "3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), "-table") {
				t.Errorf("stderr carries no usage:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("results log exists (err %v): something ran", err)
			}
		})
	}
}

// TestTable3Golden and TestFigure5Golden pin two artefacts that run in
// process against outputs captured from the tools pssweep replaced;
// `make paper-smoke` checks all of them.
func TestTable3Golden(t *testing.T) {
	got, summary := paperRun(t, "-out", filepath.Join(t.TempDir(), "log.jsonl"), "-table", "3")
	if want := readGolden(t, "table3.golden"); got != want {
		t.Errorf("-table 3:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(summary, "0 campaign runs") {
		t.Errorf("Table 3 is not campaign-backed, yet: %s", summary)
	}
}

func TestFigure5Golden(t *testing.T) {
	got, _ := paperRun(t, "-out", filepath.Join(t.TempDir(), "log.jsonl"), "-fig", "5")
	if want := readGolden(t, "fig5.golden"); got != want {
		t.Errorf("-fig 5:\n%s\nwant:\n%s", got, want)
	}
}
