// Package experiment is the harness that reproduces the paper's
// evaluation: it assembles a simulated platform, workload, fault plan,
// and detector into one run, executes campaigns of such runs (in
// parallel across OS threads — each run owns its engine), and
// aggregates the paper's metrics: detection accuracy (ACh), false
// positive rate, response delay, faulty-process identification accuracy
// (ACf) and precision (PRf), runtimes, and overhead.
package experiment

import (
	"math"
	"runtime"
	"sync"
	"time"

	"parastack/internal/chaos"
	"parastack/internal/core"
	"parastack/internal/detect"
	"parastack/internal/diagnose/waitfor"
	"parastack/internal/fault"
	"parastack/internal/model"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/sim"
	"parastack/internal/stats"
	"parastack/internal/timeout"
	"parastack/internal/topology"
	"parastack/internal/workload"
)

// PPNFor returns the processes-per-node layout the paper used on each
// platform (Tardis 8×32, Tianhe-2 64×16, Stampede 16 per node). The
// knowledge itself lives on noise.Profile.DefaultPPN; PPNFor remains as
// a delegating convenience for name-keyed callers and keeps the
// historical 16-per-node fallback for unknown platforms.
func PPNFor(platform string) int {
	if p, err := noise.Lookup(platform); err == nil && p.DefaultPPN > 0 {
		return p.DefaultPPN
	}
	return 16
}

// RunConfig describes one simulated run.
type RunConfig struct {
	// Params selects and calibrates the workload.
	Params workload.Params
	// Platform is the timing profile (Tardis/Tianhe2/Stampede).
	Platform noise.Profile
	// PPN is processes per node (0 = Platform.DefaultPPN, falling back
	// to PPNFor(Platform.Name) for profiles that never set one).
	PPN int
	// Seed drives all randomness in the run.
	Seed int64

	// Parallel is accepted and ignored.
	//
	// Deprecated: the engine has one executor. The field selected the
	// windowed one, which never out-ran it; it remains only so that
	// existing configurations keep compiling.
	Parallel int

	// FaultKind injects a fault (fault.None = clean run) at a random
	// rank and a random iteration no earlier than MinFaultTime.
	FaultKind fault.Kind
	// MinFaultTime excludes faults in the model-building phase, like
	// the paper's discard rule (default 30s).
	MinFaultTime time.Duration

	// Chaos, when non-nil and enabled, fault-injects the detector's own
	// machinery (see internal/chaos): probe loss and staleness,
	// monitored-rank death, sampling-clock jitter, and — when the
	// profile schedules one — a monitor crash followed by a
	// Snapshot/RestoreMonitor failover. All chaos randomness derives
	// from Seed, so runs stay seed-deterministic. Applies to the legacy
	// Monitor slot.
	Chaos *chaos.Profile

	// Monitor attaches ParaStack when non-nil. Monitor, Timeout, and
	// Watchdog are the legacy hard-wired detector slots, kept working
	// for compatibility (and still feeding RunResult.Report /
	// RunResult.TimeoutReport); new code attaching detectors should
	// prefer the uniform ExtraDetectors path.
	Monitor *core.Config
	// Timeout attaches the fixed-(I,K) baseline when non-nil (legacy
	// slot; see Monitor).
	Timeout *timeout.Config
	// Watchdog attaches the activity watchdog when nonzero (legacy
	// slot; see Monitor).
	Watchdog time.Duration

	// ExtraDetectors attaches any number of additional detectors
	// uniformly: each factory is invoked against the run's world just
	// before launch, its detector is Started, and its verdict lands in
	// RunResult.Extra under the detector's Name. Extra verdicts count
	// toward Detected/FalsePositive only when no legacy detector
	// reported (ParaStack first, then the fixed-(I,K) baseline, then
	// the earliest extra report).
	ExtraDetectors []DetectorFactory

	// ProbeSout records the exact full-population Sout at this interval
	// when nonzero (Figures 2 and 3).
	ProbeSout time.Duration
	// KeepHistory retains the monitor's Scrout samples.
	KeepHistory bool
	// WallLimit bounds the virtual run time (0 = 3× estimated + 10 min).
	WallLimit time.Duration

	// Trace, when non-nil, receives the run's structured events (engine
	// and monitor). The sink must be concurrency-safe: a campaign's
	// parallel runs share it, each tagging events with its seed.
	// Recording is pure observation and never perturbs virtual time.
	Trace obs.Sink
	// TraceProcs additionally emits per-sleep proc_sleep events (very
	// high volume; off by default even when Trace is set).
	TraceProcs bool
	// Stats, when non-nil, accumulates every run's metric snapshot —
	// the campaign-wide counter totals.
	Stats *obs.Totals
}

// RunResult is everything a campaign needs from one run.
type RunResult struct {
	Spec     workload.Spec
	Platform string
	Seed     int64
	// FaultKind echoes the injected fault's kind, so aggregation can
	// apply the same per-kind rules Run does (e.g. excluding
	// communication deadlocks from faulty-identification metrics).
	FaultKind fault.Kind

	// Completed is true when the application finished, with FinishedAt
	// its completion time.
	Completed  bool
	FinishedAt time.Duration

	// Injected reports whether the fault actually fired, and when.
	Injected    bool
	InjectedAt  time.Duration
	PlannedFail []int // ranks the plan made faulty

	// Report is ParaStack's verdict (nil if none).
	Report *core.Report
	// TimeoutReport is the fixed-(I,K) baseline's verdict (nil if none).
	TimeoutReport *timeout.Report
	// Extra holds the verdicts of RunConfig.ExtraDetectors, in
	// attachment order (a nil Report means that detector stayed quiet).
	Extra []NamedReport

	// Cause is the root-cause label the wait-for analysis diagnosed
	// after the verdict ("" when no diagnosis ran — no verdict, or the
	// run completed); Diagnosis carries the full evidence. The same
	// diagnosis is attached to the winning report's Cause field, so it
	// travels with the verdict through the sweep JSONL log.
	Cause     string
	Diagnosis *waitfor.Diagnosis

	// Derived detector quality (for whichever detector was attached;
	// ParaStack wins if both were).
	Detected      bool
	FalsePositive bool
	Delay         time.Duration

	// Faulty-identification quality (valid when Detected and the fault
	// was a computation-phase fault).
	FaultyFound bool
	Precision   float64

	// Monitor internals.
	Doublings     int
	FinalInterval time.Duration
	SlowdownsSeen int

	History []core.Sample
	Sout    []core.SoutPoint

	Events uint64

	// Metrics is the run's observability snapshot: engine and monitor
	// counters/gauges (see core.Ctr*/sim.Ctr* for names).
	Metrics obs.Snapshot
}

// RetryClass classifies this run's outcome for a supervising
// scheduler: RetryNone for a run whose application completed with no
// report (there is nothing to redo), otherwise the cause-derived class
// — structural causes (deadlock, collective mismatch) are RetryNever,
// everything else (straggler chains, lost messages, unknown, no
// diagnosis) is RetryTransient. parastackd's job supervisor consults
// this to decide fail-fast versus requeue-with-backoff.
func (r *RunResult) RetryClass() detect.RetryClass {
	if r.Completed && firstReport(r) == nil {
		return detect.RetryNone
	}
	return detect.RetryClassForCause(r.Cause)
}

// Runner executes simulations while retaining the engine and world
// across calls: each Run resets them instead of reallocating, so a
// campaign worker's steady-state run reuses the event free lists, rank
// structures, queue backing arrays, and message/request/collective-op
// pools of the previous run. Results are bit-identical to fresh
// construction (sim.Engine.Reset restarts virtual time, sequence
// numbers, and the seeded random stream from zero).
//
// A Runner is not safe for concurrent use; give each worker its own.
type Runner struct {
	eng *sim.Engine
	w   *mpi.World

	// model is the previous run's detector model (of capacity modelMax):
	// the next monitor takes over its buffers instead of growing its own.
	model    *model.Model
	modelMax int
}

// NewRunner returns an empty Runner; its first Run allocates the engine
// and world, later Runs reuse them.
func NewRunner() *Runner { return &Runner{} }

// Run executes one simulation on a fresh engine and world. For
// campaigns, a reused Runner avoids the per-run construction cost.
func Run(rc RunConfig) RunResult { return NewRunner().Run(rc) }

// Run executes one simulation, reusing the Runner's engine and world
// from the previous call when possible (the world is rebuilt only when
// the process count changes).
//
// A panic unwinding through Run (a crash plan, a detector, a closure
// event — anything on Run's goroutine) leaves the engine mid-run with
// every rank parked: Run shuts it down so the goroutines exit, forgets
// the engine and world so the next Run builds fresh ones, and lets the
// panic continue.
func (rn *Runner) Run(rc RunConfig) RunResult {
	finished := false
	defer func() {
		if !finished {
			eng := rn.eng
			*rn = Runner{}
			if eng != nil {
				eng.Shutdown()
			}
		}
	}()
	res := rn.run(rc)
	finished = true
	return res
}

// reuseModel moves the previous run's model buffers into m, the model
// of the monitor just built with history capacity maxHistory, and
// remembers m for the next run. Nothing a RunResult holds points into
// those buffers.
func (rn *Runner) reuseModel(m *model.Model, maxHistory int) {
	if rn.model != nil && rn.modelMax == maxHistory {
		rn.model.Reset()
		*m = *rn.model
	}
	rn.model, rn.modelMax = m, maxHistory
}

func (rn *Runner) run(rc RunConfig) RunResult {
	p := rc.Params
	procs := p.Procs
	ppn := rc.PPN
	if ppn == 0 {
		if rc.Platform.DefaultPPN > 0 {
			ppn = rc.Platform.DefaultPPN
		} else {
			ppn = PPNFor(rc.Platform.Name)
		}
	}
	if procs%ppn != 0 {
		ppn = procs // degenerate single-node layout
	}

	if rn.eng == nil {
		rn.eng = sim.NewEngine(rc.Seed)
	} else {
		// Engine first, then world: Reset drains the stale event queue
		// whose callbacks reference the old run's pooled requests.
		rn.eng.Reset(rc.Seed)
	}
	eng := rn.eng
	rec := obs.New(rc.Trace)
	rec.SetRun(rc.Seed)
	eng.SetRecorder(rec)
	eng.TraceProcs(rc.TraceProcs)
	if rn.w == nil || rn.w.Size() != procs {
		rn.w = mpi.NewWorld(eng, procs, rc.Platform.Latency())
	} else {
		rn.w.Reset(rc.Platform.Latency())
	}
	w := rn.w
	speed := rc.Platform.Speed
	if speed <= 0 {
		speed = 1
	}
	estimated := time.Duration(float64(p.EstimatedDuration()) / speed)
	rc.Platform.Apply(w, eng.Rand(), ppn, estimated)
	cluster := topology.New(procs/ppn, ppn, rc.Seed)

	res := RunResult{Spec: p.Spec, Platform: rc.Platform.Name, Seed: rc.Seed, FaultKind: rc.FaultKind}

	var inj *fault.Injector
	if rc.FaultKind != fault.None {
		minT := rc.MinFaultTime
		if minT == 0 {
			minT = 30 * time.Second
		}
		// Degenerate specs (zero compute per iteration, or zero
		// iterations) have no model-building phase to protect; fall
		// back to iteration 0 instead of dividing by zero.
		perIter := time.Duration(float64(p.Compute) / speed)
		minIter := 0
		if perIter > 0 {
			minIter = int(minT/perIter) + 1
		}
		plan := fault.NewRandomPlan(eng.Rand(), rc.FaultKind, procs, p.Iters, minIter, ppn)
		inj = fault.NewInjector(plan)
		res.PlannedFail = plan.FaultyRanks()
	}

	var chInj *chaos.Injector
	if rc.Chaos != nil && rc.Chaos.Enabled() {
		chInj = chaos.NewInjector(*rc.Chaos, rc.Seed, procs)
	}

	var mon *core.Monitor
	if rc.Monitor != nil {
		cfg := *rc.Monitor
		cfg.KeepHistory = cfg.KeepHistory || rc.KeepHistory
		if cfg.Recorder == nil {
			cfg.Recorder = rec
		}
		if chInj != nil && cfg.Chaos == nil {
			cfg.Chaos = chInj
		}
		mon = core.New(w, cluster, cfg)
		rn.reuseModel(mon.Model(), cfg.MaxHistory)
		mon.Start()
		if crashAt, downtime, crash := chInj.CrashPlan(); crash {
			// Monitor failover: at the crash time, checkpoint and kill
			// the monitor; after the downtime, restore a replacement
			// from the checkpoint. The same materialized cfg (shared
			// recorder included) makes degradation counters accumulate
			// across the failover, and the post-run reads below follow
			// `mon` to whichever incarnation is last.
			monCfg := cfg
			eng.At(sim.Time(crashAt), func() {
				if w.Done() || mon.Report() != nil {
					return // verdict already out, or nothing left to watch
				}
				snap := mon.Snapshot()
				mon.Stop()
				eng.After(downtime, func() {
					if w.Done() {
						return
					}
					restored := core.RestoreMonitor(w, cluster, monCfg, snap)
					restored.Start()
					mon = restored
				})
			})
		}
	}
	var tod *timeout.FixedIK
	if rc.Timeout != nil {
		tod = timeout.NewFixedIK(w, cluster, *rc.Timeout)
		tod.Start()
	}
	var wd *timeout.Watchdog
	if rc.Watchdog > 0 {
		wd = timeout.NewWatchdog(w, rc.Watchdog)
		wd.Start()
	}
	var extras []Detector
	for _, mk := range rc.ExtraDetectors {
		if mk == nil {
			continue
		}
		d := mk(DetectorEnv{World: w, Cluster: cluster, Recorder: rec})
		if d == nil {
			continue
		}
		d.Start()
		extras = append(extras, d)
	}
	var soutPts *[]core.SoutPoint
	if rc.ProbeSout > 0 {
		soutPts = core.ProbeSout(w, rc.ProbeSout, 0)
	}

	w.Launch(p.Body(inj))

	limit := rc.WallLimit
	if limit == 0 {
		limit = 3*estimated + 10*time.Minute
	}
	eng.Run(limit)

	res.Completed = w.Done()
	res.FinishedAt = time.Duration(w.FinishedAt())
	res.Injected, res.InjectedAt = inj.Triggered()
	if mon != nil {
		res.Report = mon.Report()
		res.Doublings = mon.Doublings()
		res.FinalInterval = mon.Interval()
		res.SlowdownsSeen = mon.SlowdownsSeen()
		res.History = mon.History()
	}
	if tod != nil {
		res.TimeoutReport = tod.Report()
	}
	if wd != nil && wd.Report() != nil && res.TimeoutReport == nil {
		res.TimeoutReport = wd.Report()
	}
	for _, d := range extras {
		res.Extra = append(res.Extra, NamedReport{Name: d.Name(), Report: d.Report()})
	}
	if soutPts != nil {
		res.Sout = *soutPts
	}
	res.Events = eng.EventsFired()
	// Root-cause diagnosis: when a detector reported on a hung world,
	// snapshot every rank's blocked operation and classify the hang.
	// This happens before Shutdown — Capture reads the paused world and
	// must see the blocked ranks, not their torn-down remains. Under
	// chaos, visibility is what one more probe round would see: ranks
	// whose probe would be lost or stale stay unobserved, so the
	// classifier degrades toward unknown rather than trusting state
	// nobody could have collected. (The extra chaos-stream draws happen
	// after the run is decided, so determinism is unaffected.)
	if verdict := firstReport(&res); verdict != nil && !res.Completed {
		now := time.Duration(eng.Now())
		snap := waitfor.Capture(w, func(rank int) bool {
			return chInj.ProbeFate(rank, now) == chaos.FateOK
		})
		res.Diagnosis = waitfor.Analyze(snap)
		res.Cause = string(res.Diagnosis.Cause)
		verdict.Cause = res.Diagnosis
	}
	// Release all parked goroutines (hung runs would otherwise leak
	// their rank processes for the lifetime of the campaign). Done
	// before the metric snapshot so terminations are counted in it.
	eng.Shutdown()
	res.Metrics = rec.Snapshot()
	if rc.Stats != nil {
		rc.Stats.Add(res.Metrics)
	}

	// Detector verdicts: a report counts as detection only if the fault
	// had fired; otherwise it is a false positive.
	var at time.Duration
	var reported bool
	switch {
	case res.Report != nil:
		at, reported = res.Report.DetectedAt, true
	case res.TimeoutReport != nil:
		at, reported = res.TimeoutReport.DetectedAt, true
	default:
		for _, nr := range res.Extra {
			if nr.Report != nil && (!reported || nr.Report.DetectedAt < at) {
				at, reported = nr.Report.DetectedAt, true
			}
		}
	}
	if reported {
		if res.Injected && at >= res.InjectedAt {
			res.Detected = true
			res.Delay = at - res.InjectedAt
		} else {
			res.FalsePositive = true
		}
	}

	// Faulty-identification quality (paper §7.2): per detected run,
	// precision is |true∩reported| / |reported| (1/x_i for single-fault
	// plans), accuracy is whether the true faulty ranks were found.
	// Communication-phase faults strand their victim IN_MPI, where the
	// OUT_MPI persistence scan cannot see it, so they are ineligible.
	if res.Detected && res.Report != nil && len(res.PlannedFail) > 0 &&
		!rc.FaultKind.CommPhase() {
		truth := map[int]bool{}
		for _, f := range res.PlannedFail {
			truth[f] = true
		}
		hit := 0
		for _, f := range res.Report.FaultyRanks {
			if truth[f] {
				hit++
			}
		}
		res.FaultyFound = hit == len(res.PlannedFail)
		if len(res.Report.FaultyRanks) > 0 {
			res.Precision = float64(hit) / float64(len(res.Report.FaultyRanks))
		}
	}
	return res
}

// firstReport returns the run's winning verdict in detector-priority
// order — ParaStack, then the fixed-(I,K)/watchdog slot, then the
// earliest extra report — the same order the Detected/FalsePositive
// classification uses. nil when every detector stayed quiet.
func firstReport(res *RunResult) *core.Report {
	if res.Report != nil {
		return res.Report
	}
	if res.TimeoutReport != nil {
		return res.TimeoutReport
	}
	var best *core.Report
	for _, nr := range res.Extra {
		if nr.Report != nil && (best == nil || nr.Report.DetectedAt < best.DetectedAt) {
			best = nr.Report
		}
	}
	return best
}

// Campaign runs n copies of base with seeds seed0, seed0+1, … in
// parallel (bounded by GOMAXPROCS) and returns results in seed order.
func Campaign(base RunConfig, n int, seed0 int64) []RunResult {
	out := make([]RunResult, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Runner per worker: runs within a worker reuse the
			// engine/world; workers never share simulator state.
			rn := NewRunner()
			for i := range next {
				rc := base
				rc.Seed = seed0 + int64(i)
				out[i] = rn.Run(rc)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Metrics aggregates a campaign the way the paper's tables do.
type Metrics struct {
	Runs           int
	Injected       int
	Planned        int
	Detected       int
	FalsePositives int
	// Accuracy is ACh = Detected / Planned over runs with a fault plan
	// (1 if the campaign was clean). A false positive that terminates a
	// run before its fault fires counts against accuracy, exactly as in
	// the paper's Table 1.
	Accuracy float64
	// FPRate is FalsePositives / Runs.
	FPRate float64
	// Delay summarizes response delays of detected runs (seconds).
	Delay stats.Summary
	// Runtime summarizes FinishedAt of completed runs (seconds).
	Runtime stats.Summary
	// ACf and PRf are faulty-identification accuracy and precision over
	// detected computation-fault runs (paper §7.2).
	ACf, PRf      float64
	FaultyChecked int
	// Cause-classification quality over detected fault runs that got a
	// wait-for diagnosis: CauseCorrect diagnoses matched the injected
	// fault's expected cause, CauseUnknown degraded honestly to
	// "unknown", and the remainder named a wrong cause. CauseAccuracy
	// is CauseCorrect / CauseChecked.
	CauseChecked  int
	CauseCorrect  int
	CauseUnknown  int
	CauseAccuracy float64
}

// Aggregate computes campaign metrics.
func Aggregate(rs []RunResult) Metrics {
	m := Metrics{Runs: len(rs)}
	var delays, runtimes []float64
	var precSum float64
	faultyFound := 0
	for _, r := range rs {
		if r.Injected {
			m.Injected++
		}
		if len(r.PlannedFail) > 0 {
			m.Planned++
		}
		if r.Detected {
			m.Detected++
			delays = append(delays, r.Delay.Seconds())
		}
		if r.FalsePositive {
			m.FalsePositives++
		}
		if r.Completed {
			runtimes = append(runtimes, r.FinishedAt.Seconds())
		}
		// Same eligibility rule as Run's precision computation:
		// communication-phase faults (deadlock, lost message, collective
		// mismatch) have no OUT_MPI ranks to identify (Precision is
		// always 0 there), so counting them would silently dilute PRf
		// and ACf.
		if r.Detected && len(r.PlannedFail) > 0 && r.Report != nil &&
			!r.FaultKind.CommPhase() {
			m.FaultyChecked++
			// Run only ever writes a finite Precision (the hit/identified
			// division is guarded against an empty identified set), but
			// results can also arrive from logs or third-party
			// constructors — one NaN here would poison the whole
			// campaign's PRf, so treat it as "identified nothing".
			if !math.IsNaN(r.Precision) {
				precSum += r.Precision
			}
			if r.FaultyFound {
				faultyFound++
			}
		}
		if r.Detected && r.FaultKind != fault.None && r.Cause != "" {
			m.CauseChecked++
			switch r.Cause {
			case string(waitfor.ExpectedCause(r.FaultKind)):
				m.CauseCorrect++
			case string(waitfor.CauseUnknown):
				m.CauseUnknown++
			}
		}
	}
	if m.Planned > 0 {
		m.Accuracy = float64(m.Detected) / float64(m.Planned)
	} else {
		m.Accuracy = 1
	}
	if m.Runs > 0 {
		m.FPRate = float64(m.FalsePositives) / float64(m.Runs)
	}
	m.Delay = stats.Summarize(delays)
	m.Runtime = stats.Summarize(runtimes)
	if m.FaultyChecked > 0 {
		m.ACf = float64(faultyFound) / float64(m.FaultyChecked)
		m.PRf = precSum / float64(m.FaultyChecked)
	}
	if m.CauseChecked > 0 {
		m.CauseAccuracy = float64(m.CauseCorrect) / float64(m.CauseChecked)
	}
	return m
}
