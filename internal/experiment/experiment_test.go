package experiment

import (
	"math"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/diagnose/waitfor"
	"parastack/internal/fault"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/sim"
	"parastack/internal/timeout"
	"parastack/internal/topology"
	"parastack/internal/workload"
)

// smallParams is a fast CG-like configuration for harness tests.
func smallParams() workload.Params {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "test", Procs: 32}
	p.Iters = 400
	p.Compute = 120 * time.Millisecond
	p.HaloBytes = 16 << 10
	return p
}

func TestCleanRunWithMonitor(t *testing.T) {
	res := Run(RunConfig{
		Params:   smallParams(),
		Platform: noise.Tardis(),
		PPN:      8,
		Seed:     1,
		Monitor:  &core.Config{},
	})
	if !res.Completed {
		t.Fatal("clean run did not complete")
	}
	if res.FalsePositive || res.Report != nil {
		t.Fatalf("false positive: %+v", res.Report)
	}
	if res.FinishedAt <= 0 {
		t.Fatal("no completion time")
	}
}

func TestFaultyRunDetection(t *testing.T) {
	res := Run(RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      2,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	})
	if !res.Injected {
		t.Fatal("fault not injected")
	}
	if res.InjectedAt < 30*time.Second {
		t.Fatalf("fault at %v, before the 30s discard threshold", res.InjectedAt)
	}
	if !res.Detected {
		t.Fatal("hang not detected")
	}
	if res.Delay <= 0 || res.Delay > time.Minute {
		t.Fatalf("delay = %v", res.Delay)
	}
	if !res.FaultyFound || res.Precision != 1 {
		t.Fatalf("faulty identification: found=%v precision=%v (planned %v, got %v)",
			res.FaultyFound, res.Precision, res.PlannedFail, res.Report.FaultyRanks)
	}
}

func TestTimeoutBaselineAttach(t *testing.T) {
	res := Run(RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      3,
		FaultKind: fault.ComputationHang,
		Timeout:   &timeout.Config{C: 10, Interval: 400 * time.Millisecond, K: 10, Threshold: 0.15},
	})
	if !res.Detected && !res.FalsePositive {
		t.Fatal("timeout baseline produced no verdict on a hung run")
	}
	if res.Report != nil {
		t.Fatal("no monitor was attached but a ParaStack report exists")
	}
}

func TestCampaignAggregate(t *testing.T) {
	rs := Campaign(RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	}, 6, 100)
	m := Aggregate(rs)
	if m.Runs != 6 || m.Injected != 6 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Accuracy < 0.8 {
		t.Fatalf("accuracy = %v over %d runs", m.Accuracy, m.Runs)
	}
	if m.FPRate != 0 {
		t.Fatalf("FP rate = %v", m.FPRate)
	}
	if m.Delay.N != m.Detected || m.Delay.Mean <= 0 {
		t.Fatalf("delay summary = %+v", m.Delay)
	}
	if m.ACf < 0.8 || m.PRf < 0.8 {
		t.Fatalf("faulty metrics ACf=%v PRf=%v", m.ACf, m.PRf)
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	cfg := RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	}
	a := Campaign(cfg, 3, 50)
	b := Campaign(cfg, 3, 50)
	for i := range a {
		if a[i].InjectedAt != b[i].InjectedAt || a[i].Delay != b[i].Delay ||
			a[i].Detected != b[i].Detected {
			t.Fatalf("run %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSoutProbeCapture(t *testing.T) {
	p := smallParams()
	p.Iters = 80
	res := Run(RunConfig{
		Params:    p,
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      5,
		ProbeSout: 10 * time.Millisecond,
	})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if len(res.Sout) < 100 {
		t.Fatalf("only %d Sout points", len(res.Sout))
	}
}

func TestOverheadMeasurable(t *testing.T) {
	// Clean vs monitored runtime at a tight interval: the monitored run
	// must not be more than a few percent slower — and must not be
	// faster by more than noise.
	p := smallParams()
	p.Iters = 200
	clean := Run(RunConfig{Params: p, Platform: noise.Tardis(), PPN: 8, Seed: 7})
	mon := Run(RunConfig{Params: p, Platform: noise.Tardis(), PPN: 8, Seed: 7,
		Monitor: &core.Config{InitialInterval: 100 * time.Millisecond}})
	if !clean.Completed || !mon.Completed {
		t.Fatal("runs did not complete")
	}
	ratio := float64(mon.FinishedAt) / float64(clean.FinishedAt)
	if ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("monitored/clean runtime ratio = %v", ratio)
	}
}

func TestPPNFor(t *testing.T) {
	if PPNFor("tardis") != 32 || PPNFor("tianhe2") != 16 || PPNFor("stampede") != 16 {
		t.Fatal("PPNFor wrong")
	}
}

// TestZeroComputeFaultPlanDoesNotPanic: Params.Compute == 0 (and even
// Iters == 0) makes the per-iteration fault-placement arithmetic
// degenerate; the plan must fall back to iteration 0 instead of
// dividing by zero or asking the RNG for Intn(0).
func TestZeroComputeFaultPlanDoesNotPanic(t *testing.T) {
	p := smallParams()
	p.Compute = 0
	p.Iters = 0
	res := Run(RunConfig{
		Params:    p,
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      11,
		FaultKind: fault.ComputationHang,
		WallLimit: 30 * time.Second,
	})
	if res.Seed != 11 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestAggregateExcludesDeadlockFromFaultyMetrics: Run deliberately
// skips communication-deadlock runs when computing Precision (there
// are no faulty ranks to identify), so Aggregate must skip them in
// FaultyChecked too — otherwise their always-zero Precision silently
// dilutes PRf and ACf.
func TestAggregateExcludesDeadlockFromFaultyMetrics(t *testing.T) {
	rep := &core.Report{}
	comp := RunResult{
		FaultKind:   fault.ComputationHang,
		Detected:    true,
		PlannedFail: []int{3},
		Report:      rep,
		FaultyFound: true,
		Precision:   1,
	}
	dead := RunResult{
		FaultKind:   fault.CommunicationDeadlock,
		Detected:    true,
		PlannedFail: []int{5},
		Report:      rep, // Precision stays 0: nothing identifiable
	}
	m := Aggregate([]RunResult{comp, dead})
	if m.FaultyChecked != 1 {
		t.Fatalf("FaultyChecked = %d, want 1 (deadlock run must be excluded)", m.FaultyChecked)
	}
	if m.PRf != 1 || m.ACf != 1 {
		t.Fatalf("PRf = %v, ACf = %v, want 1, 1 (undiluted by the deadlock run)", m.PRf, m.ACf)
	}
}

// TestDeadlockCampaignAggregate runs a real communication-deadlock
// campaign end to end: detection still counts toward accuracy, but no
// run may enter the faulty-identification pool.
func TestDeadlockCampaignAggregate(t *testing.T) {
	rs := Campaign(RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		FaultKind: fault.CommunicationDeadlock,
		Monitor:   &core.Config{},
	}, 3, 200)
	m := Aggregate(rs)
	if m.Injected != 3 {
		t.Fatalf("injected = %d, want 3", m.Injected)
	}
	if m.FaultyChecked != 0 {
		t.Fatalf("FaultyChecked = %d, want 0 for a pure deadlock campaign", m.FaultyChecked)
	}
	if m.Detected == 0 {
		t.Fatal("no deadlock detected; detection accuracy should not depend on the fix")
	}
	for _, r := range rs {
		if r.FaultKind != fault.CommunicationDeadlock {
			t.Fatalf("run %d lost its FaultKind: %v", r.Seed, r.FaultKind)
		}
		if r.Precision != 0 {
			t.Fatalf("deadlock run %d has Precision %v, want 0", r.Seed, r.Precision)
		}
	}
}

func TestExtraDetectors(t *testing.T) {
	res := Run(RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      2,
		FaultKind: fault.ComputationHang,
		ExtraDetectors: []DetectorFactory{
			MonitorDetector(core.Config{}),
			WatchdogDetector(30 * time.Second),
			func(DetectorEnv) Detector { return nil }, // nil factory result is skipped
		},
	})
	if !res.Injected {
		t.Fatal("fault not injected")
	}
	if len(res.Extra) != 2 {
		t.Fatalf("Extra holds %d reports, want 2 (nil factory skipped): %+v", len(res.Extra), res.Extra)
	}
	if res.Extra[0].Name != "parastack" || res.Extra[1].Name != "watchdog" {
		t.Fatalf("detector names = %q, %q", res.Extra[0].Name, res.Extra[1].Name)
	}
	if res.Extra[0].Report == nil {
		t.Fatal("extra-attached monitor produced no report on a hung run")
	}
	// With no legacy detector slots, the verdict falls to the earliest
	// extra report.
	if !res.Detected {
		t.Fatal("extra detector's report did not drive the run verdict")
	}
	if res.Report != nil {
		t.Fatal("legacy Report field set by an extra detector")
	}
}

func TestDetectorInterfaceSatisfied(t *testing.T) {
	// The three concrete detectors must satisfy the unified interface
	// and report distinct names.
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, 16, noise.Tardis().Latency())
	cluster := topology.New(2, 8, 1)
	ds := []Detector{
		core.New(w, cluster, core.Config{}),
		timeout.NewFixedIK(w, cluster, timeout.Config{}),
		timeout.NewWatchdog(w, time.Minute),
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if d.Name() == "" || seen[d.Name()] {
			t.Fatalf("detector name %q empty or duplicated", d.Name())
		}
		seen[d.Name()] = true
		if d.Report() != nil {
			t.Fatalf("%s reports a hang before starting", d.Name())
		}
	}
}

// TestPrecisionGuardedAgainstEmptyIdentifiedSet pins Run's guard on the
// precision division: a detected computation-phase fault whose report
// identifies no faulty ranks must yield Precision 0, never NaN — an
// unguarded hit/len division would return NaN and poison every
// aggregate it touches.
func TestPrecisionGuardedAgainstEmptyIdentifiedSet(t *testing.T) {
	// A communication-type report carries no FaultyRanks even when the
	// injected fault was computation-phase (e.g. the victim was caught
	// IN_MPI at scan time), which is exactly the empty-set edge.
	res := RunResult{
		FaultKind:   fault.ComputationHang,
		Detected:    true,
		PlannedFail: []int{3},
		Report:      &core.Report{Type: core.HangCommunication},
	}
	if math.IsNaN(res.Precision) || res.Precision != 0 {
		t.Fatalf("zero-value Precision = %v, want 0", res.Precision)
	}
	m := Aggregate([]RunResult{res})
	if math.IsNaN(m.PRf) {
		t.Fatal("PRf is NaN for an empty identified set")
	}
	if m.FaultyChecked != 1 || m.PRf != 0 {
		t.Fatalf("FaultyChecked = %d, PRf = %v, want 1, 0", m.FaultyChecked, m.PRf)
	}
}

// TestAggregateRejectsNaNPrecision pins Aggregate's own defense: a NaN
// Precision arriving from outside Run (an old log, a third-party
// constructor) must not poison PRf — one NaN summed into precSum would
// make the whole campaign's PRf NaN.
func TestAggregateRejectsNaNPrecision(t *testing.T) {
	good := RunResult{
		FaultKind:   fault.ComputationHang,
		Detected:    true,
		PlannedFail: []int{1},
		Report:      &core.Report{FaultyRanks: []int{1}},
		FaultyFound: true,
		Precision:   1,
	}
	poison := good
	poison.Precision = math.NaN()
	m := Aggregate([]RunResult{good, poison})
	if math.IsNaN(m.PRf) {
		t.Fatal("one NaN Precision poisoned PRf")
	}
	if m.FaultyChecked != 2 || m.PRf != 0.5 {
		t.Fatalf("FaultyChecked = %d, PRf = %v, want 2, 0.5 (NaN counts as identified-nothing)", m.FaultyChecked, m.PRf)
	}
}

// TestRunawayDoublingCellsDetected: the 64-rank campaign cells whose
// monitor, with no ceiling on the sampling interval, doubled I eight or
// nine times (to 102.4 s or 204.8 s) and ended with no verdict. With
// the ceiling each hang is detected and diagnosed as its injected cause
// within three doublings, and the clean run of each seed completes with
// no report. The seed list is fixed: these are the cells that failed.
func TestRunawayDoublingCellsDetected(t *testing.T) {
	allKinds := []fault.Kind{fault.ComputationHang, fault.LostMessage,
		fault.CollectiveMismatch, fault.CommunicationDeadlock}
	cells := []struct {
		bench string
		seed  int64
		kinds []fault.Kind
	}{
		{"BT", 15003, []fault.Kind{fault.ComputationHang}},
		{"CG", 16017, allKinds},
		{"CG", 27028, allKinds},
		{"CG", 39019, allKinds},
		{"CG", 47049, allKinds},
		{"CG", 48036, allKinds},
	}
	r := NewRunner()
	for _, c := range cells {
		cfg := RunConfig{
			Params:   workload.MustLookup(c.bench, "D", 64),
			Platform: noise.Tardis(),
			Seed:     c.seed,
			Monitor:  &core.Config{},
		}
		for _, k := range c.kinds {
			cfg.FaultKind = k
			res := r.Run(cfg)
			want := string(waitfor.ExpectedCause(k))
			if !res.Detected || res.Cause != want || res.Doublings > 3 {
				t.Errorf("%s/D/64 seed %d %s: detected %v, cause %q (want %q), %d doublings",
					c.bench, c.seed, k, res.Detected, res.Cause, want, res.Doublings)
			}
		}
		cfg.FaultKind = fault.None
		if res := r.Run(cfg); !res.Completed || res.Report != nil {
			t.Errorf("%s/D/64 seed %d clean: completed %v, report %+v", c.bench, c.seed, res.Completed, res.Report)
		}
	}
}
