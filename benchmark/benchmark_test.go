package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/fault"
)

// TestSmokeAllWorkloads runs all five workloads end to end at a small
// scale, untraced and traced, and requires every metric named in
// spec.go to be present with its unit and every check to pass.
func TestSmokeAllWorkloads(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to start with fewer than 2 CPUs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const scale, seconds = 0.02, 0.3
	out := t.TempDir()
	kernels, err := runKernels(scale, out)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range kernels {
		if !(v > 0) {
			t.Errorf("kernel %s = %v, want > 0", name, v)
		}
	}

	reports := make(map[string]*report)
	for _, w := range workloads {
		cfg := childConfig{workload: w.name, seed: 1, seconds: seconds, scale: scale, outDir: out}
		untraced, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		reports[w.name] = untraced
		cfg.traced, cfg.kernels, cfg.reference = true, kernels, untraced
		traced, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, rep := range []*report{untraced, traced} {
			for _, ch := range rep.Checks {
				if !ch.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, rep.Traced, ch.Name, ch.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, rep.Traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if rep.Env.GOMAXPROCS != w.procs || rep.Env.NumCPU < 2 || rep.Env.GoVersion == "" {
				t.Errorf("%s: environment incomplete: %+v", w.name, rep.Env)
			}
			if rep.Metrics["bench.verdict_correct_ratio"].Value != 1 && rep.Traced {
				t.Errorf("%s: verdict_correct_ratio = %v, want 1", w.name, rep.Metrics["bench.verdict_correct_ratio"].Value)
			}
			line := resultLineFor(rep)
			defs := endToEnd
			if rep.Traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.name, rep.Traced, len(line.Metrics), len(defs))
			}
			for _, m := range defs {
				mv, ok := line.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present=%v), want unit %q", w.name, rep.Traced, m.Name, mv, ok, m.Unit)
				}
			}
			// End-to-end metrics are never 0: the driver divides by them.
			for _, m := range endToEnd {
				if !(rep.Metrics[m.Name].Value > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.name, rep.Traced, m.Name, rep.Metrics[m.Name].Value)
				}
			}
		}
		data, err := os.ReadFile(traced.TraceFile)
		if err != nil || len(bytes.TrimSpace(data)) == 0 {
			t.Errorf("%s: trace file %q missing or empty (%v)", w.name, traced.TraceFile, err)
		}
	}
	if detail, same := compareWide(reports["wide_serial"], reports["wide_windowed"]); !same {
		t.Errorf("wide_windowed differs from wide_serial: %s", detail)
	}
	// A mismatched serial/windowed pair must fail the cross-check, and a
	// failed cross-check is a non-zero exit.
	tampered := *reports["wide_windowed"]
	tampered.Rows = append([]runRow(nil), tampered.Rows...)
	tampered.Rows[0].Events++
	if _, same := compareWide(reports["wide_serial"], &tampered); same {
		t.Error("compareWide accepted a windowed run with a different event count")
	}
}

func TestExitStatus(t *testing.T) {
	if got := exitStatus(true, nil); got != 0 {
		t.Errorf("all checks passed: exit %d, want 0", got)
	}
	if got := exitStatus(false, nil); got != 1 {
		t.Errorf("a failed check: exit %d, want 1", got)
	}
	if got := exitStatus(true, os.ErrNotExist); got != 2 {
		t.Errorf("an error: exit %d, want 2", got)
	}
}

// TestWrongVerdictFailsTheRun pins the chain from one wrong verdict to
// the exit status: ground truth -> check -> report.Correct -> exit 1.
func TestWrongVerdictFailsTheRun(t *testing.T) {
	missed := experiment.RunResult{Completed: false, Detected: false}
	if classifyRun(fault.ComputationHang, &missed) == outcomeCorrect {
		t.Fatal("an undetected injected hang matched ground truth")
	}
	falsePositive := experiment.RunResult{Completed: false, FalsePositive: true}
	if classifyRun(fault.None, &falsePositive) != outcomeFalsePositive {
		t.Fatal("a false positive on a clean run was not classified as one")
	}
	wrongCause := experiment.RunResult{Detected: true, Cause: "deadlock"}
	if classifyRun(fault.LostMessage, &wrongCause) != outcomeWrong {
		t.Fatal("a lost message diagnosed as a deadlock was not classified wrong")
	}
	clean := experiment.RunResult{Completed: true}
	if classifyRun(fault.None, &clean) != outcomeCorrect {
		t.Fatal("a completed clean run did not match ground truth")
	}

	c := &runCtx{metrics: map[string]float64{}, counts: map[string]int{}, attempted: 10}
	c.check("ground_truth", true, "")
	if rep := c.report("campaign_narrow", false, environment{}); !rep.Correct || exitStatus(rep.Correct, nil) != 0 {
		t.Fatalf("a run with passing checks: correct=%v", rep.Correct)
	}
	c.check("ground_truth", classifyRun(fault.ComputationHang, &missed) == outcomeCorrect, "9 of 10 runs matched")
	rep := c.report("campaign_narrow", false, environment{})
	if rep.Correct || exitStatus(rep.Correct, nil) != 1 {
		t.Fatalf("a wrong verdict left correct=%v exit=%d, want false and 1", rep.Correct, exitStatus(rep.Correct, nil))
	}
	if line := resultLineFor(rep); line.Correct {
		t.Fatal("the result line reports correct=true after a failed check")
	}
	// A failed operation alone is also a failed run.
	c = &runCtx{metrics: map[string]float64{}, counts: map[string]int{}, attempted: 10, failed: 1}
	if rep := c.report("daemon_durable", false, environment{}); rep.Correct {
		t.Fatal("a run with a failed operation is reported correct")
	}
}

// TestFalsePositivesWithinAlpha pins the one tolerated kind of wrong
// verdict: false positives, up to what alpha explains. A miss or a
// wrong cause is never tolerated.
func TestFalsePositivesWithinAlpha(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {165, 4}, {2300, 12}} {
		if got := fpAllowance(tc.n, 0.001); got != tc.want {
			t.Errorf("fpAllowance(%d, 0.001) = %d, want %d", tc.n, got, tc.want)
		}
	}
	verdict := func(falsePositives, misses int) bool {
		c := &runCtx{metrics: map[string]float64{}, counts: map[string]int{}}
		var tally truthTally
		for i := 0; i < 2300; i++ {
			o := outcomeCorrect
			switch {
			case i < falsePositives:
				o = outcomeFalsePositive
			case i < falsePositives+misses:
				o = outcomeWrong
			}
			tally.add(o, func() string { return "job" })
		}
		tally.publish(c)
		return c.report("daemon_durable", false, environment{}).Correct
	}
	if !verdict(0, 0) || !verdict(3, 0) {
		t.Error("a run with no or three false positives in 2300 jobs must pass")
	}
	if verdict(13, 0) {
		t.Error("13 false positives in 2300 jobs at alpha 0.001 must fail the run")
	}
	if verdict(0, 1) {
		t.Error("a single missed hang must fail the run")
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Layer: "l", StartNS: start, EndNS: end}
	}
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name:  "nested",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 2, 20, 30)},
			want:  map[int]int64{1: 50, 2: 40, 3: 10},
		},
		{
			name:  "siblings with a gap",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 30), sp(3, 1, 50, 90)},
			want:  map[int]int64{1: 40, 2: 20, 3: 40},
		},
		{
			name: "overlapping children count their union once",
			// Two workers under one phase: [10,60] and [40,90] cover [10,90].
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 1, 40, 90)},
			want:  map[int]int64{1: 20, 2: 50, 3: 50},
		},
		{
			name: "a child that outlives its parent is clipped",
			// An asynchronous append that ends after the job span does.
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 80, 150)},
			want:  map[int]int64{1: 80, 2: 70},
		},
		{
			name:  "a child inside another child adds nothing",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 90), sp(3, 1, 20, 30)},
			want:  map[int]int64{1: 20, 2: 80, 3: 10},
		},
	}
	for _, tc := range cases {
		got := selfTimes(tc.spans)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("%s: self time of span %d = %d, want %d", tc.name, id, got[id], want)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {16, 0, false}, {99, 0, false}, // median only
		{100, 0.90, true}, {999, 0.90, true},
		{1000, 0.99, true}, {9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, tc := range cases {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := supportedTail(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := supportedTail(xs[:999], 0.99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (not supported)", got)
	}
	if got := supportedTail(xs[:999], 0.90); got != 900 {
		t.Errorf("p90 of 1..999 = %v, want 900", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two values = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

// fakeClock advances only when told to, so a test decides exactly how
// late the generator runs.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d) }

// TestOpenLoopCountsFromDueTime stalls the third request for 35ms on a
// 10ms schedule. The requests behind it are sent late, and their
// latency must include that wait: it is counted from when each was due,
// not from when the late generator got round to sending it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const interval, service = 10 * time.Millisecond, 2 * time.Millisecond
	var due, sent, done []time.Duration
	lateMax := openLoop(clk, start, interval, 6, func(i int, d time.Time) {
		due = append(due, d.Sub(start))
		sent = append(sent, clk.Now().Sub(start))
		if i == 2 {
			clk.Sleep(35 * time.Millisecond) // the stall
		}
		clk.Sleep(service)
		done = append(done, clk.Now().Sub(start))
	})
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	wantDue := []time.Duration{0, ms(10), ms(20), ms(30), ms(40), ms(50)}
	wantSent := []time.Duration{0, ms(10), ms(20), ms(57), ms(59), ms(61)}
	wantLatency := []time.Duration{ms(2), ms(2), ms(37), ms(29), ms(21), ms(13)}
	for i := range wantDue {
		if due[i] != wantDue[i] || sent[i] != wantSent[i] {
			t.Errorf("request %d: due %v sent %v, want due %v sent %v", i, due[i], sent[i], wantDue[i], wantSent[i])
		}
		if got := done[i] - due[i]; got != wantLatency[i] {
			t.Errorf("request %d: latency from due time %v, want %v", i, got, wantLatency[i])
		}
	}
	if lateMax != ms(27) {
		t.Errorf("generator lateness = %v, want 27ms", lateMax)
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json generated, not
// edited: it must be exactly what `go run ./benchmark -spec` prints.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}
