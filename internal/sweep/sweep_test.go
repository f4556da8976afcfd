package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/workload"
)

// testSpec is a small grid whose cells are cheap under an injected
// executor and quick under the real one.
func testSpec() Spec {
	return Spec{
		Workloads: []workload.Spec{
			{Name: "CG", Class: "D", Procs: 64},
			{Name: "LU", Class: "D", Procs: 64},
		},
		Platforms: []string{"tardis"},
		Faults:    []string{"computation"},
		Seeds:     3,
		Detector:  DetectorSpec{Monitor: true},
	}
}

// fakeRun is a deterministic stand-in executor: the result is a pure
// function of the run configuration.
func fakeRun(rc experiment.RunConfig) experiment.RunResult {
	return experiment.RunResult{
		Spec:       rc.Params.Spec,
		Platform:   rc.Platform.Name,
		Seed:       rc.Seed,
		FaultKind:  rc.FaultKind,
		Injected:   true,
		InjectedAt: time.Duration(rc.Seed) * time.Second,
		Detected:   rc.Seed%2 == 1,
		Delay:      time.Duration(rc.Seed) * 100 * time.Millisecond,
		Completed:  false,
		FinishedAt: time.Duration(rc.Seed) * 10 * time.Second,
	}
}

func aggregateJSON(t *testing.T, o *Outcome) string {
	t.Helper()
	data, err := json.Marshal(o.Aggregate())
	if err != nil {
		t.Fatalf("marshal aggregate: %v", err)
	}
	return string(data)
}

// TestKillAndResume is the determinism contract: a sweep hard-stopped
// mid-grid (MaxRuns, the deterministic crash stand-in) and then
// resumed must produce bit-identical aggregate metrics to an
// uninterrupted sweep.
func TestKillAndResume(t *testing.T) {
	spec := testSpec()
	ctx := context.Background()

	straight, err := Run(ctx, spec, Options{Run: fakeRun, Workers: 4})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if !straight.Complete() {
		t.Fatalf("uninterrupted sweep incomplete: %d/%d", len(straight.Records), straight.Total)
	}
	want := aggregateJSON(t, straight)

	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	half, err := Run(ctx, spec, Options{Run: fakeRun, Workers: 2, Out: log, MaxRuns: straight.Total / 2, SyncEvery: 1})
	if err != nil {
		t.Fatalf("halted run: %v", err)
	}
	if !half.Halted {
		t.Fatal("MaxRuns did not halt the sweep")
	}
	if half.Executed != straight.Total/2 {
		t.Fatalf("halted sweep executed %d, want %d", half.Executed, straight.Total/2)
	}

	resumed, err := Resume(ctx, log, spec, Options{Run: fakeRun, Workers: 4})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.Complete() {
		t.Fatalf("resumed sweep incomplete: %d/%d", len(resumed.Records), resumed.Total)
	}
	if resumed.Skipped != straight.Total/2 {
		t.Fatalf("resume skipped %d, want %d", resumed.Skipped, straight.Total/2)
	}
	if got := aggregateJSON(t, resumed); got != want {
		t.Errorf("resumed aggregate differs from uninterrupted:\n got %s\nwant %s", got, want)
	}

	recs, err := Load(log)
	if err != nil {
		t.Fatalf("load log: %v", err)
	}
	if len(recs) != straight.Total {
		t.Errorf("log holds %d records, want %d", len(recs), straight.Total)
	}
}

// TestKillAndResumeRealRuns repeats the determinism check with the
// real executor, so JSON round-tripping of genuine RunResults is
// covered too.
func TestKillAndResumeRealRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs")
	}
	spec := SmokeSpec()
	ctx := context.Background()

	straight, err := Run(ctx, spec, Options{})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := aggregateJSON(t, straight)

	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(ctx, spec, Options{Out: log, MaxRuns: 2, SyncEvery: 1}); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	resumed, err := Resume(ctx, log, spec, Options{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.Complete() || resumed.Skipped != 2 {
		t.Fatalf("resume: complete=%t skipped=%d", resumed.Complete(), resumed.Skipped)
	}
	if got := aggregateJSON(t, resumed); got != want {
		t.Errorf("resumed aggregate differs from uninterrupted:\n got %s\nwant %s", got, want)
	}
}

// TestRetry exercises the panic-recovery path: a cell that panics once
// is retried and succeeds; a cell that always panics is recorded
// failed without taking the sweep down.
func TestRetry(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	flakyKey := cells[1].Key()
	doomedKey := cells[3].Key()

	var mu sync.Mutex
	attempts := map[string]int{}
	run := func(rc experiment.RunConfig) experiment.RunResult {
		key := Cell{Workload: workload.Spec{Name: rc.Params.Spec.Name, Class: rc.Params.Spec.Class, Procs: rc.Params.Spec.Procs},
			Platform: rc.Platform.Name, Fault: rc.FaultKind, Seed: rc.Seed}.Key()
		mu.Lock()
		attempts[key]++
		n := attempts[key]
		mu.Unlock()
		if key == doomedKey {
			panic(fmt.Sprintf("doomed cell %s", key))
		}
		if key == flakyKey && n == 1 {
			panic("flaky first attempt")
		}
		return fakeRun(rc)
	}

	rec := obs.New(nil)
	out, err := Run(context.Background(), spec, Options{Run: run, Workers: 1, Retries: 1, Recorder: rec})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Complete() {
		t.Fatalf("sweep incomplete: %d/%d", len(out.Records), out.Total)
	}
	if out.Failed != 1 {
		t.Errorf("failed = %d, want 1", out.Failed)
	}
	// flaky: one retry then success; doomed: initial + 1 retry, failed.
	if out.Retried != 2 {
		t.Errorf("retried = %d, want 2", out.Retried)
	}
	if got := rec.Counter(CtrRunsRetried); got != 2 {
		t.Errorf("counter %s = %d, want 2", CtrRunsRetried, got)
	}
	if got := rec.Counter(CtrRunsFailed); got != 1 {
		t.Errorf("counter %s = %d, want 1", CtrRunsFailed, got)
	}
	if got := rec.Counter(CtrRunsDone); got != int64(out.Total-1) {
		t.Errorf("counter %s = %d, want %d", CtrRunsDone, got, out.Total-1)
	}

	byKey := map[string]Record{}
	for _, r := range out.Records {
		byKey[r.Key] = r
	}
	if r := byKey[flakyKey]; r.Status != StatusOK || r.Attempts != 2 {
		t.Errorf("flaky cell: status=%s attempts=%d, want ok/2", r.Status, r.Attempts)
	}
	if r := byKey[doomedKey]; r.Status != StatusFailed || r.Attempts != 2 || !strings.Contains(r.Error, "doomed") {
		t.Errorf("doomed cell: %+v, want failed/2 with panic message", r)
	}
	if got := len(out.Results()); got != out.Total-1 {
		t.Errorf("Results() = %d runs, want %d (failed cell excluded)", got, out.Total-1)
	}
}

// TestResumeSkipsFailed: failed cells are terminal — resume must not
// re-execute them (deterministic runs would fail again).
func TestResumeSkipsFailed(t *testing.T) {
	spec := testSpec()
	run := func(rc experiment.RunConfig) experiment.RunResult {
		if rc.Seed == 2 {
			panic("always fails")
		}
		return fakeRun(rc)
	}
	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	first, err := Run(context.Background(), spec, Options{Run: run, Retries: -1, Out: log})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Failed != 2 { // seed 2 of both workloads
		t.Fatalf("first run failed = %d, want 2", first.Failed)
	}
	executed := 0
	resumed, err := Resume(context.Background(), log, spec, Options{
		Run: func(rc experiment.RunConfig) experiment.RunResult { executed++; return fakeRun(rc) },
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if executed != 0 {
		t.Errorf("resume re-executed %d cells of a complete log", executed)
	}
	if resumed.Skipped != resumed.Total || resumed.Failed != 2 {
		t.Errorf("resume: skipped=%d/%d failed=%d, want all skipped, 2 failed", resumed.Skipped, resumed.Total, resumed.Failed)
	}
}

// TestCancellation: a cancelled context stops dispatch, returns the
// context error, and leaves a resumable log.
func TestCancellation(t *testing.T) {
	spec := testSpec()
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	run := func(rc experiment.RunConfig) experiment.RunResult {
		ran++
		if ran == 2 {
			cancel()
		}
		return fakeRun(rc)
	}
	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	out, err := Run(ctx, spec, Options{Run: run, Workers: 1, Out: log})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Complete() {
		t.Fatal("cancelled sweep claims completeness")
	}
	resumed, err := Resume(context.Background(), log, spec, Options{Run: fakeRun})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.Complete() || resumed.Skipped != out.Executed {
		t.Errorf("resume after cancel: complete=%t skipped=%d want skipped=%d",
			resumed.Complete(), resumed.Skipped, out.Executed)
	}
}

// TestLoadTornTail: a truncated final line (hard kill mid-write) is
// dropped; the cell it belonged to is simply re-run on resume.
func TestLoadTornTail(t *testing.T) {
	spec := testSpec()
	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(context.Background(), spec, Options{Run: fakeRun, Out: log, SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	whole, err := Load(log)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-25] // cut into the last record
	if err := os.WriteFile(log, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(log)
	if err != nil {
		t.Fatalf("load with torn tail: %v", err)
	}
	if len(recs) != len(whole)-1 {
		t.Fatalf("torn load kept %d records, want %d", len(recs), len(whole)-1)
	}
	resumed, err := Resume(context.Background(), log, spec, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 1 || !resumed.Complete() {
		t.Errorf("resume after torn tail: executed=%d complete=%t, want 1/true", resumed.Executed, resumed.Complete())
	}
	// The re-run record must land on a line of its own, not glued onto
	// the torn fragment: the log loads whole and a second resume has
	// nothing left to do.
	again, err := Resume(context.Background(), log, spec, Options{Run: fakeRun})
	if err != nil {
		t.Fatalf("second resume after torn tail: %v", err)
	}
	if again.Executed != 0 || !again.Complete() {
		t.Errorf("second resume: executed=%d complete=%t, want 0/true", again.Executed, again.Complete())
	}
	if recs, err := Load(log); err != nil || len(recs) != len(whole) {
		t.Fatalf("load after resume over torn tail = %d records, %v; want %d", len(recs), err, len(whole))
	}

	// Mid-file corruption, by contrast, must be loud.
	bad := append([]byte("{garbage\n"), data...)
	if err := os.WriteFile(log, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(log); err == nil {
		t.Error("Load accepted mid-file corruption")
	}
}

// TestTornWriteWalk cuts a complete results log at every byte offset a
// crash can stop a write, then resumes, loads and resumes again. Every
// cut must resume cleanly, re-running exactly the cells whose records
// were cut; the second resume must run nothing; and the aggregate must
// equal the uninterrupted sweep's.
func TestTornWriteWalk(t *testing.T) {
	spec := testSpec()
	ctx := context.Background()
	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	straight, err := Run(ctx, spec, Options{Run: fakeRun, Out: log, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateJSON(t, straight)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(log, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		committed := strings.Count(string(data[:n]), "\n")
		first, err := Resume(ctx, log, spec, Options{Run: fakeRun, Workers: 1})
		if err != nil {
			t.Fatalf("cut %d: resume: %v", n, err)
		}
		if first.Executed != straight.Total-committed || !first.Complete() {
			t.Fatalf("cut %d: resume executed %d (complete=%t), want %d", n, first.Executed, first.Complete(), straight.Total-committed)
		}
		if recs, err := Load(log); err != nil || len(recs) != straight.Total {
			t.Fatalf("cut %d: load after resume = %d records, %v; want %d", n, len(recs), err, straight.Total)
		}
		second, err := Resume(ctx, log, spec, Options{Run: fakeRun, Workers: 1})
		if err != nil {
			t.Fatalf("cut %d: second resume: %v", n, err)
		}
		if second.Executed != 0 {
			t.Fatalf("cut %d: second resume executed %d, want 0", n, second.Executed)
		}
		for _, o := range []*Outcome{first, second} {
			if got := aggregateJSON(t, o); got != want {
				t.Fatalf("cut %d: aggregate differs from uninterrupted:\n got %s\nwant %s", n, got, want)
			}
		}
	}
}

// TestSpecValidation: unknown axis values fail up front.
func TestSpecValidation(t *testing.T) {
	base := testSpec()
	for name, mutate := range map[string]func(*Spec){
		"platform": func(s *Spec) { s.Platforms = []string{"nosuch"} },
		"fault":    func(s *Spec) { s.Faults = []string{"bogus"} },
		"workload": func(s *Spec) { s.Workloads = []workload.Spec{{Name: "ZZ", Class: "D", Procs: 64}} },
		"empty":    func(s *Spec) { s.Workloads = nil },
	} {
		s := base
		mutate(&s)
		if _, err := s.Cells(); err == nil {
			t.Errorf("%s: Cells accepted an invalid spec", name)
		}
	}
}

// TestOrchestratorCampaignResume: the paper-mode seam. A campaign
// interrupted by its MaxRuns budget and re-run through a fresh
// orchestrator over the same log must replay completed runs and
// produce results identical to an uninterrupted campaign.
func TestOrchestratorCampaignResume(t *testing.T) {
	prof, err := noise.Lookup("tardis")
	if err != nil {
		t.Fatal(err)
	}
	base := experiment.RunConfig{
		Params:   workload.MustLookup("CG", "D", 64),
		Platform: prof,
	}
	const n = 6

	mkOpts := func(o Options) Options { o.Run = fakeRun; return o }
	ctx := context.Background()

	straight, err := NewOrchestrator(ctx, mkOpts(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	want := straight.Campaign(base, n, 1)
	if straight.Interrupted() {
		t.Fatal("uninterrupted orchestrator claims interruption")
	}

	log := filepath.Join(t.TempDir(), "campaign.jsonl")
	halted, err := NewOrchestrator(ctx, mkOpts(Options{Out: log, MaxRuns: 3, SyncEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	halted.Campaign(base, n, 1)
	if !halted.Interrupted() {
		t.Fatal("MaxRuns did not interrupt the orchestrator")
	}
	if err := halted.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewOrchestrator(ctx, mkOpts(Options{Out: log, Resume: true}))
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Campaign(base, n, 1)
	if resumed.Interrupted() {
		t.Fatal("resumed orchestrator claims interruption")
	}
	st := resumed.Stats()
	if st.Skipped != 3 || st.Executed != 3 {
		t.Errorf("resume stats: skipped=%d executed=%d, want 3/3", st.Skipped, st.Executed)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("resumed campaign differs from uninterrupted:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestFingerprint: identical configurations share a fingerprint;
// changing any outcome-affecting knob changes it; attaching trace
// sinks or recorders does not.
func TestFingerprint(t *testing.T) {
	prof, err := noise.Lookup("tardis")
	if err != nil {
		t.Fatal(err)
	}
	base := experiment.RunConfig{
		Params:   workload.MustLookup("CG", "D", 64),
		Platform: prof,
	}
	fp := Fingerprint(base)
	if Fingerprint(base) != fp {
		t.Fatal("fingerprint unstable across calls")
	}
	withTrace := base
	withTrace.Trace = obs.NewMemSink()
	if Fingerprint(withTrace) != fp {
		t.Error("attaching a trace sink changed the fingerprint")
	}
	changed := base
	changed.PPN = 8
	if Fingerprint(changed) == fp {
		t.Error("changing PPN kept the fingerprint")
	}
	otherWL := base
	otherWL.Params = workload.MustLookup("LU", "D", 64)
	if Fingerprint(otherWL) == fp {
		t.Error("changing workload kept the fingerprint")
	}
}
