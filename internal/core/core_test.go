package core

import (
	"testing"
	"time"

	"parastack/internal/fault"
	"parastack/internal/mpi"
	"parastack/internal/sim"
	"parastack/internal/topology"
)

// testApp is a configurable iterative solver: per-iteration computation
// skewed across ranks followed by an allreduce, the canonical shape of
// the paper's benchmarks.
type testApp struct {
	iters        int
	baseCompute  time.Duration
	skew         time.Duration // uniform extra compute per rank per iter
	collBytes    int
	inj          *fault.Injector
	busyWaitRing bool // use Irecv+Test busy-wait ring instead of allreduce
}

func (a testApp) body(r *mpi.Rank) {
	eng := r.World().Engine()
	size := r.World().Size()
	for it := 0; it < a.iters; it++ {
		r.Call("solver_step", func() {
			d := a.baseCompute
			if a.skew > 0 {
				d += time.Duration(eng.Rand().Int63n(int64(a.skew)))
			}
			r.Compute(d)
			a.inj.Check(r, it)
		})
		if a.busyWaitRing {
			// Non-blocking ring exchange completed by a busy-wait loop.
			next, prev := (r.ID()+1)%size, (r.ID()+size-1)%size
			q := r.Irecv(prev, it)
			r.Send(next, it, a.collBytes)
			r.Call("ring_poll", func() {
				for !r.Test(q) {
					r.Spin(5 * time.Microsecond)
				}
			})
			r.Allreduce(8)
		} else {
			r.Allreduce(a.collBytes)
		}
	}
}

// launch builds engine, world, cluster and monitor for a test app.
func launch(seed int64, size, ppn int, app testApp, cfg Config) (*sim.Engine, *mpi.World, *Monitor) {
	eng := sim.NewEngine(seed)
	w := mpi.NewWorld(eng, size, mpi.Latency{})
	cl := topology.New(size/ppn, ppn, seed)
	m := New(w, cl, cfg)
	w.Launch(app.body)
	m.Start()
	return eng, w, m
}

func TestHealthyRunNoReport(t *testing.T) {
	app := testApp{iters: 600, baseCompute: 10 * time.Millisecond, skew: 60 * time.Millisecond, collBytes: 1 << 14}
	eng, w, m := launch(1, 8, 4, app, Config{C: 4})
	eng.Run(10 * time.Minute)
	if !w.Done() {
		t.Fatal("healthy app did not complete")
	}
	if m.Report() != nil {
		t.Fatalf("false positive: %+v", m.Report())
	}
	if m.Model().N() < 11 {
		t.Fatalf("model only collected %d samples", m.Model().N())
	}
}

func TestComputationHangDetected(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 5, Iteration: 300})
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 60 * time.Millisecond, collBytes: 1 << 14, inj: inj}
	eng, w, m := launch(2, 8, 4, app, Config{C: 4})
	eng.Run(30 * time.Minute)
	if w.Done() {
		t.Fatal("hung app completed")
	}
	rep := m.Report()
	if rep == nil {
		t.Fatal("hang not detected")
	}
	if rep.Type != HangComputation {
		t.Fatalf("type = %v, want computation-error", rep.Type)
	}
	if len(rep.FaultyRanks) != 1 || rep.FaultyRanks[0] != 5 {
		t.Fatalf("faulty ranks = %v, want [5]", rep.FaultyRanks)
	}
	trig, at := inj.Triggered()
	if !trig {
		t.Fatal("fault never triggered")
	}
	delay := rep.DetectedAt - at
	if delay <= 0 {
		t.Fatalf("detected at %v before fault at %v", rep.DetectedAt, at)
	}
	if delay > time.Minute {
		t.Fatalf("response delay %v exceeds a minute", delay)
	}
}

func TestCommunicationDeadlockDetected(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.CommunicationDeadlock, Rank: 3, Iteration: 250})
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 60 * time.Millisecond, collBytes: 1 << 14, inj: inj}
	eng, _, m := launch(3, 8, 4, app, Config{C: 4})
	eng.Run(30 * time.Minute)
	rep := m.Report()
	if rep == nil {
		t.Fatal("deadlock not detected")
	}
	if rep.Type != HangCommunication {
		t.Fatalf("type = %v, want communication-error", rep.Type)
	}
	if len(rep.FaultyRanks) != 0 {
		t.Fatalf("faulty ranks = %v, want none", rep.FaultyRanks)
	}
}

func TestBusyWaitWorkloadHangIdentification(t *testing.T) {
	// HPL-style: pollers flip through MPI_Test during the hang and must
	// not be reported as faulty.
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 2, Iteration: 200})
	app := testApp{
		iters: 2000, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond,
		collBytes: 1 << 12, inj: inj, busyWaitRing: true,
	}
	eng, _, m := launch(4, 8, 4, app, Config{C: 4})
	eng.Run(30 * time.Minute)
	rep := m.Report()
	if rep == nil {
		t.Fatal("hang not detected in busy-wait workload")
	}
	if rep.Type != HangComputation {
		t.Fatalf("type = %v", rep.Type)
	}
	for _, f := range rep.FaultyRanks {
		if f != 2 {
			t.Fatalf("busy-wait poller %d misreported as faulty (got %v)", f, rep.FaultyRanks)
		}
	}
	if len(rep.FaultyRanks) != 1 {
		t.Fatalf("faulty ranks = %v, want [2]", rep.FaultyRanks)
	}
}

func TestNodeFreezeReportsNodeRanks(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.NodeFreeze, Rank: 5, Iteration: 200, PPN: 4})
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 60 * time.Millisecond, collBytes: 1 << 14, inj: inj}
	// Seed chosen for reliable detection: freezing half the job keeps
	// Sout moderate, so a minority of seeds sit below the detection
	// margin (true of the pre-sharding engine as well).
	eng, _, m := launch(6, 8, 4, app, Config{C: 4})
	eng.Run(30 * time.Minute)
	rep := m.Report()
	if rep == nil {
		t.Fatal("node freeze not detected")
	}
	want := map[int]bool{4: true, 5: true, 6: true, 7: true}
	if len(rep.FaultyRanks) != 4 {
		t.Fatalf("faulty = %v, want ranks 4-7", rep.FaultyRanks)
	}
	for _, f := range rep.FaultyRanks {
		if !want[f] {
			t.Fatalf("faulty = %v, want ranks 4-7", rep.FaultyRanks)
		}
	}
}

func TestTransientSlowdownFiltered(t *testing.T) {
	// A 20s window during which rank 1's computation runs 25x slower:
	// the model will see persistent low Scrout, but the slowdown filter
	// must catch the slow progress and not report a hang.
	eng := sim.NewEngine(6)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	slowFrom, slowTo := 60*time.Second, 80*time.Second
	w.Perturb = func(r *mpi.Rank, d time.Duration) time.Duration {
		now := time.Duration(r.Now())
		if r.ID() == 1 && now >= slowFrom && now < slowTo {
			return 25 * d
		}
		return d
	}
	cl := topology.New(2, 4, 6)
	m := New(w, cl, Config{C: 4})
	app := testApp{iters: 3000, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 14}
	w.Launch(app.body)
	m.Start()
	eng.Run(time.Hour)
	if !w.Done() {
		t.Fatal("slowed app did not complete")
	}
	if m.Report() != nil {
		t.Fatalf("transient slowdown misreported as hang: %+v", m.Report())
	}
	if m.SlowdownsSeen() == 0 {
		t.Fatal("filter never engaged; slowdown window too mild for the test to be meaningful")
	}
}

func TestSlowdownFilterDisabledCausesFalsePositive(t *testing.T) {
	// Ablation: same scenario with the filter off must (incorrectly)
	// report a hang — demonstrating why the filter exists.
	eng := sim.NewEngine(6)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	slowFrom, slowTo := 60*time.Second, 80*time.Second
	w.Perturb = func(r *mpi.Rank, d time.Duration) time.Duration {
		now := time.Duration(r.Now())
		if r.ID() == 1 && now >= slowFrom && now < slowTo {
			return 25 * d
		}
		return d
	}
	cl := topology.New(2, 4, 6)
	m := New(w, cl, Config{C: 4, DisableSlowdownFilter: true})
	app := testApp{iters: 3000, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 14}
	w.Launch(app.body)
	m.Start()
	eng.Run(time.Hour)
	if m.Report() == nil {
		t.Skip("slowdown window did not accumulate enough suspicions at this seed")
	}
}

func TestIntervalAdaptationFromTinyI(t *testing.T) {
	// Start with I = 10ms against an app whose cycle is ~45ms: sampling
	// is time-correlated, the runs test must force I to grow (Table 9's
	// P* configuration), and detection must still work.
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 1, Iteration: 700})
	app := testApp{iters: 3000, baseCompute: 40 * time.Millisecond, skew: 10 * time.Millisecond, collBytes: 120 << 20, inj: inj}
	eng, _, m := launch(7, 8, 4, app, Config{C: 4, InitialInterval: 10 * time.Millisecond})
	eng.Run(time.Hour)
	if m.Doublings() == 0 {
		t.Fatal("runs test never doubled I despite correlated sampling")
	}
	if m.Interval() <= 10*time.Millisecond {
		t.Fatalf("I = %v, want growth", m.Interval())
	}
	if m.Report() == nil {
		t.Fatal("hang not detected after adaptation")
	}
}

func TestMonitorExitsWhenAppCompletes(t *testing.T) {
	app := testApp{iters: 50, baseCompute: 5 * time.Millisecond, skew: 10 * time.Millisecond, collBytes: 1 << 10}
	eng, w, m := launch(8, 8, 4, app, Config{C: 4})
	end := eng.Run(time.Hour)
	if !w.Done() {
		t.Fatal("app did not complete")
	}
	// Engine must fully drain: monitor exited, so end < the hour cap.
	if end >= time.Hour {
		t.Fatalf("engine still busy at %v; monitor leaked", end)
	}
	if eng.LiveProcs() != 0 {
		t.Fatalf("%d live procs after completion", eng.LiveProcs())
	}
	if m.Report() != nil {
		t.Fatal("unexpected report")
	}
}

func TestOnHangCallbackOverridesStop(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 0, Iteration: 300})
	var cbReport *Report
	cfg := Config{C: 4, OnHang: func(r *Report) { cbReport = r }}
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 60 * time.Millisecond, collBytes: 1 << 14, inj: inj}
	eng, _, m := launch(9, 8, 4, app, Config{C: cfg.C, OnHang: cfg.OnHang})
	eng.Run(30 * time.Minute)
	if cbReport == nil {
		t.Fatal("OnHang not invoked")
	}
	if m.Report() != cbReport {
		t.Fatal("Report() disagrees with callback")
	}
	if eng.Stopped() {
		t.Fatal("engine stopped despite OnHang override")
	}
}

func TestHistoryKeptWhenEnabled(t *testing.T) {
	app := testApp{iters: 200, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 12}
	eng, _, m := launch(10, 8, 4, app, Config{C: 4, KeepHistory: true})
	eng.Run(time.Hour)
	h := m.History()
	if len(h) < 10 {
		t.Fatalf("history has %d samples", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].T <= h[i-1].T {
			t.Fatal("history timestamps not increasing")
		}
		if h[i].Scrout < 0 || h[i].Scrout > 1 {
			t.Fatalf("scrout out of range: %v", h[i].Scrout)
		}
	}
}

func TestProbeSoutHealthyVariationAndHangFlatline(t *testing.T) {
	// Figure 2/3 mechanics: healthy runs show varying Sout; after a
	// hang, Sout collapses to a persistently tiny value.
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 2, Iteration: 400})
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 30 * time.Millisecond, collBytes: 1 << 14, inj: inj}
	eng := sim.NewEngine(11)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	pts := ProbeSout(w, time.Millisecond, 0)
	w.Launch(app.body)
	eng.Run(60 * time.Second)

	_, at := inj.Triggered()
	if at == 0 {
		t.Fatal("fault did not trigger")
	}
	var healthyVals, hungVals []float64
	for _, pt := range *pts {
		if pt.T < at {
			healthyVals = append(healthyVals, pt.Sout)
		} else if pt.T > at+2*time.Second {
			hungVals = append(hungVals, pt.Sout)
		}
	}
	if len(healthyVals) < 100 || len(hungVals) < 100 {
		t.Fatalf("not enough probe points: %d healthy, %d hung", len(healthyVals), len(hungVals))
	}
	distinct := map[float64]bool{}
	for _, v := range healthyVals {
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("healthy Sout shows no variation: %v", distinct)
	}
	for _, v := range hungVals {
		if v > 1.0/8+1e-9 {
			t.Fatalf("post-hang Sout = %v, want <= 1/8 (only the faulty rank out)", v)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.C != 10 || cfg.InitialInterval != 400*time.Millisecond || cfg.Alpha != 0.001 ||
		cfg.RunsBatch != 16 || cfg.SwitchEvery != 30 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestMonitorSetsDisjoint(t *testing.T) {
	eng := sim.NewEngine(12)
	w := mpi.NewWorld(eng, 64, mpi.Latency{})
	cl := topology.New(8, 8, 12)
	m := New(w, cl, Config{})
	inA := map[int]bool{}
	for _, r := range m.sets[0].Ranks {
		inA[r] = true
	}
	if len(m.sets[0].Ranks) != 10 || len(m.sets[1].Ranks) != 10 {
		t.Fatalf("set sizes %d, %d", len(m.sets[0].Ranks), len(m.sets[1].Ranks))
	}
	for _, r := range m.sets[1].Ranks {
		if inA[r] {
			t.Fatalf("rank %d in both monitor sets", r)
		}
	}
}

// The randomized sampling step is rand(I) + I/2 (PAPER.md §3): on a
// healthy run at a fixed I, every gap between consecutive samples lies
// in [I/2, 3I/2), and gaps from both halves of that range occur. The
// tiny alpha keeps every suspicion streak short of verification, whose
// transient filter sleeps between two samples.
func TestSamplingStepWithinHalfToThreeHalvesI(t *testing.T) {
	app := testApp{iters: 2000, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 12}
	cfg := Config{C: 4, Alpha: 1e-12, KeepHistory: true, DisableAdaptation: true}
	eng, w, m := launch(13, 8, 4, app, cfg)
	eng.Run(time.Hour)
	if !w.Done() || m.Report() != nil || m.SlowdownsSeen() != 0 {
		t.Fatalf("want a healthy run with no verification: done=%v report=%v slowdowns=%d", w.Done(), m.Report(), m.SlowdownsSeen())
	}
	I := m.Interval()
	h := m.History()
	if len(h) < 50 {
		t.Fatalf("only %d samples", len(h))
	}
	low, high := 0, 0
	for i := 1; i < len(h); i++ {
		gap := h[i].T - h[i-1].T
		switch {
		case gap < I/2 || gap >= 3*I/2:
			t.Fatalf("gap %v between samples %d and %d is outside [%v, %v)", gap, i-1, i, I/2, 3*I/2)
		case gap < I:
			low++
		default:
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("gaps in [I/2, I): %d, in [I, 3I/2): %d; want both", low, high)
	}
}
