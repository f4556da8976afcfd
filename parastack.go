// Package parastack is a Go reproduction of "ParaStack: Efficient Hang
// Detection for MPI Programs at Large Scale" (SC '17): statistical,
// timeout-free hang detection for bulk-synchronous parallel programs,
// together with the full simulation substrate the reproduction runs on.
//
// Real ParaStack samples the call stacks of a handful of MPI processes
// and verifies a hang when the fraction of processes executing outside
// MPI (Scrout) stays abnormally low for a statistically significant
// streak. This package reproduces the complete system on a
// deterministic discrete-event simulation: a virtual-time engine
// (Engine), a simulated MPI runtime (World, Rank), cluster topology
// (Cluster), platform noise profiles (Profile), fault injection
// (Plan, Injector), the NPB/HPL/HPCG workload skeletons
// (WorkloadParams), the ParaStack monitor itself (Monitor), baseline
// timeout detectors, a mini batch scheduler (Scheduler, Job), and an
// experiment harness (Run, Campaign, Aggregate) that regenerates every
// table and figure of the paper's evaluation.
//
// # Quickstart
//
//	eng := parastack.NewEngine(42)
//	w := parastack.NewWorld(eng, 256, parastack.Tardis().Latency())
//	cluster := parastack.NewCluster(8, 32, 42)
//	mon := parastack.NewMonitor(w, cluster, parastack.MonitorConfig{})
//	mon.Start()
//	w.Launch(myRankBody) // any func(*parastack.Rank)
//	eng.Run(time.Hour)
//	if rep := mon.Report(); rep != nil {
//	    fmt.Println("hang:", rep.Type, "faulty ranks:", rep.FaultyRanks)
//	}
//
// Or drive a calibrated paper workload through the one-call harness:
//
//	res := parastack.Run(parastack.RunConfig{
//	    Params:    parastack.MustLookupWorkload("LU", "D", 256),
//	    Platform:  parastack.Tardis(),
//	    Seed:      1,
//	    FaultKind: parastack.ComputationHang,
//	    Monitor:   &parastack.MonitorConfig{},
//	})
package parastack

import (
	"context"
	"io"
	"math/rand"
	"time"

	"parastack/internal/chaos"
	"parastack/internal/core"
	"parastack/internal/detect"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/ledger"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/results"
	"parastack/internal/sched"
	"parastack/internal/sim"
	"parastack/internal/stack"
	"parastack/internal/sweep"
	"parastack/internal/timeout"
	"parastack/internal/topology"
	"parastack/internal/workload"
)

// Simulation substrate.
type (
	// Engine is the deterministic discrete-event simulation engine.
	Engine = sim.Engine
	// Proc is a simulated process on an Engine.
	Proc = sim.Proc
	// World is a simulated MPI job (MPI_COMM_WORLD).
	World = mpi.World
	// Rank is one simulated MPI process; workload bodies receive one.
	Rank = mpi.Rank
	// Request is a non-blocking communication handle.
	Request = mpi.Request
	// Latency is the interconnect timing model.
	Latency = mpi.Latency
	// Cluster is the node/ppn layout with rank↔process-id mapping.
	Cluster = topology.Cluster
	// Stack is a simulated call stack.
	Stack = stack.Stack
)

// ParaStack itself.
type (
	// Monitor is the ParaStack hang detector.
	Monitor = core.Monitor
	// MonitorConfig tunes the monitor; the zero value is the paper's
	// default configuration (C=10, I=400ms, alpha=0.1%).
	MonitorConfig = core.Config
	// Report is a verified hang report.
	Report = core.Report
	// Sample is one recorded Scrout observation.
	Sample = core.Sample
	// HangType classifies a hang as computation- or communication-error.
	HangType = core.HangType
	// SoutPoint is one full-population Sout probe observation.
	SoutPoint = core.SoutPoint
)

// Hang classifications.
const (
	HangComputation   = core.HangComputation
	HangCommunication = core.HangCommunication
)

// Detector interface: the contract every hang detector — the ParaStack
// Monitor and both baselines — satisfies.
type (
	// Detector is the unifying detector interface: Start begins
	// monitoring, Report returns the verified hang report (nil while
	// none), Name identifies the detector in results.
	Detector = detect.Detector
	// DetectorEnv is what a DetectorFactory gets to build against: the
	// run's world, cluster topology, and recorder.
	DetectorEnv = experiment.DetectorEnv
	// DetectorFactory builds one Detector per run; attach via
	// RunConfig.ExtraDetectors.
	DetectorFactory = experiment.DetectorFactory
	// NamedReport pairs a detector's Name with its final Report in
	// RunResult.Extra.
	NamedReport = experiment.NamedReport
)

// Fault injection.
type (
	// FaultKind selects the injected error type.
	FaultKind = fault.Kind
	// FaultPlan pins a fault to a rank and iteration.
	FaultPlan = fault.Plan
	// Injector executes a FaultPlan during a run.
	Injector = fault.Injector
)

// Fault kinds.
const (
	NoFault               = fault.None
	ComputationHang       = fault.ComputationHang
	NodeFreeze            = fault.NodeFreeze
	CommunicationDeadlock = fault.CommunicationDeadlock
)

// Platforms and workloads.
type (
	// Profile is a platform timing model (Tardis, Tianhe2, Stampede).
	Profile = noise.Profile
	// WorkloadSpec identifies a benchmark configuration.
	WorkloadSpec = workload.Spec
	// WorkloadParams is a calibrated benchmark ready to run.
	WorkloadParams = workload.Params
)

// Baselines, scheduler, harness.
type (
	// TimeoutConfig tunes the fixed-(I,K) baseline detector.
	TimeoutConfig = timeout.Config
	// TimeoutDetector is the fixed-(I,K) baseline.
	TimeoutDetector = timeout.FixedIK
	// Watchdog is the IO-Watchdog-style activity baseline.
	Watchdog = timeout.Watchdog
	// Scheduler is the mini Slurm/Torque batch system.
	Scheduler = sched.Scheduler
	// Job is one batch submission.
	Job = sched.Job
	// RunConfig describes one harness run.
	RunConfig = experiment.RunConfig
	// RunResult is the outcome of one harness run.
	RunResult = experiment.RunResult
	// Metrics aggregates a campaign (ACh, FP rate, delays, ACf, PRf).
	Metrics = experiment.Metrics
)

// Job states.
const (
	JobPending        = sched.Pending
	JobRunning        = sched.Running
	JobCompleted      = sched.Completed
	JobTimedOut       = sched.TimedOut
	JobHangTerminated = sched.HangTerminated
)

// Observability: structured tracing and metrics (package internal/obs).
type (
	// Recorder is the instrumentation seam shared by the engine, the
	// monitor, and the experiment harness.
	Recorder = obs.Recorder
	// BasicRecorder is the standard Recorder: counters always on,
	// events forwarded to an attached sink.
	BasicRecorder = obs.Basic
	// TraceEvent is one structured event on the virtual clock.
	TraceEvent = obs.Event
	// TraceField is one key/value of a TraceEvent (obs.Str/Int/F64/Bool).
	TraceField = obs.Field
	// TraceSink consumes trace events (MemSink, JSONLSink, or custom).
	TraceSink = obs.Sink
	// MemSink retains events in memory — the test assertion seam.
	MemSink = obs.MemSink
	// JSONLSink writes events as one JSON object per line.
	JSONLSink = obs.JSONLSink
	// MetricSnapshot is a point-in-time copy of counters and gauges.
	MetricSnapshot = obs.Snapshot
	// MetricTotals aggregates snapshots across a campaign's runs.
	MetricTotals = obs.Totals
)

// DisabledRecorder is the zero-cost Recorder that drops everything.
var DisabledRecorder = obs.Disabled

// NewEngine returns a deterministic simulation engine seeded with seed.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewWorld creates an MPI world of size ranks on eng.
func NewWorld(eng *Engine, size int, lat Latency) *World { return mpi.NewWorld(eng, size, lat) }

// NewCluster lays out nodes×ppn ranks.
func NewCluster(nodes, ppn int, seed int64) *Cluster { return topology.New(nodes, ppn, seed) }

// NewMonitor attaches a ParaStack monitor to w; call Start to begin.
func NewMonitor(w *World, cluster *Cluster, cfg MonitorConfig) *Monitor {
	return core.New(w, cluster, cfg)
}

// NewTimeoutDetector attaches the fixed-(I,K) baseline to w.
func NewTimeoutDetector(w *World, cluster *Cluster, cfg TimeoutConfig) *TimeoutDetector {
	return timeout.NewFixedIK(w, cluster, cfg)
}

// NewWatchdog attaches an activity watchdog with the given timeout.
func NewWatchdog(w *World, timeoutDur time.Duration) *Watchdog {
	return timeout.NewWatchdog(w, timeoutDur)
}

// NewScheduler creates a batch scheduler managing totalNodes on eng.
func NewScheduler(eng *Engine, totalNodes int) *Scheduler { return sched.New(eng, totalNodes) }

// Tardis returns the 16-node cluster platform profile.
func Tardis() Profile { return noise.Tardis() }

// Tianhe2 returns the Tianhe-2 platform profile.
func Tianhe2() Profile { return noise.Tianhe2() }

// Stampede returns the Stampede platform profile.
func Stampede() Profile { return noise.Stampede() }

// LookupPlatform returns a named profile ("tardis", "tianhe2",
// "stampede"), or an error naming the known platforms.
func LookupPlatform(name string) (Profile, error) { return noise.Lookup(name) }

// PlatformNames lists the known platform profiles.
func PlatformNames() []string { return noise.Names() }

// ParseFaultKind parses a fault-kind name ("none", "computation",
// "node", "deadlock").
func ParseFaultKind(name string) (FaultKind, error) { return fault.Parse(name) }

// LookupWorkload returns a calibrated benchmark configuration.
func LookupWorkload(name, class string, procs int) (WorkloadParams, error) {
	return workload.Lookup(name, class, procs)
}

// MustLookupWorkload is LookupWorkload that panics on error.
func MustLookupWorkload(name, class string, procs int) WorkloadParams {
	return workload.MustLookup(name, class, procs)
}

// WorkloadNames lists the supported benchmarks.
func WorkloadNames() []string { return workload.Names() }

// NewRandomFaultPlan draws a fault plan like the paper's injection
// methodology: uniformly random victim rank and trigger iteration.
func NewRandomFaultPlan(rng *rand.Rand, kind FaultKind, size, iters, minIter, ppn int) FaultPlan {
	return fault.NewRandomPlan(rng, kind, size, iters, minIter, ppn)
}

// NewInjector wraps a plan for one run.
func NewInjector(p FaultPlan) *Injector { return fault.NewInjector(p) }

// FaultKindNames lists every accepted fault-kind spelling.
func FaultKindNames() []string { return fault.Names() }

// Detector chaos: fault injection against ParaStack itself (package
// internal/chaos) and the monitor's failover checkpoint.
type (
	// ChaosProfile declares how a run perturbs its own detector: probe
	// loss/staleness, rank deaths, clock jitter, monitor crash.
	ChaosProfile = chaos.Profile
	// ChaosInjector drives one run's detector chaos deterministically
	// from the run seed.
	ChaosInjector = chaos.Injector
	// ProbeFate is the outcome chaos assigns one probe RPC.
	ProbeFate = chaos.Fate
	// MonitorSnapshot is a restartable checkpoint of a monitor's learned
	// state (Monitor.Snapshot / RestoreMonitor).
	MonitorSnapshot = core.Snapshot
)

// Probe fates.
const (
	ProbeOK    = chaos.FateOK
	ProbeLost  = chaos.FateLost
	ProbeStale = chaos.FateStale
)

// ParseChaosProfile resolves a chaos profile name ("none", "light",
// "probe-loss", "heavy", …); "none" yields nil (chaos disabled) and
// unknown names an error enumerating every accepted one.
func ParseChaosProfile(name string) (*ChaosProfile, error) { return chaos.Parse(name) }

// ChaosProfileNames lists the named chaos profiles.
func ChaosProfileNames() []string { return chaos.Names() }

// NewChaosInjector materializes a chaos profile for one run of size
// ranks, deriving all randomness from seed.
func NewChaosInjector(p ChaosProfile, seed int64, size int) *ChaosInjector {
	return chaos.NewInjector(p, seed, size)
}

// RestoreMonitor builds a monitor resuming from a checkpoint — the
// failover path after a monitor crash. Call Start on the result.
func RestoreMonitor(w *World, cluster *Cluster, cfg MonitorConfig, snap MonitorSnapshot) *Monitor {
	return core.RestoreMonitor(w, cluster, cfg, snap)
}

// ProbeSout attaches a zero-cost Sout probe to w (Figures 2/3).
func ProbeSout(w *World, interval, stop time.Duration) *[]SoutPoint {
	return core.ProbeSout(w, interval, stop)
}

// Run executes one harness run (workload + platform + fault + detector).
func Run(rc RunConfig) RunResult { return experiment.Run(rc) }

// Campaign runs n seeds of base in parallel and returns results in seed
// order.
func Campaign(base RunConfig, n int, seed0 int64) []RunResult {
	return experiment.Campaign(base, n, seed0)
}

// Aggregate computes the paper's campaign metrics.
func Aggregate(rs []RunResult) Metrics { return experiment.Aggregate(rs) }

// NewRecorder returns a recorder forwarding events to sink; a nil sink
// yields a metrics-only recorder (counters on, events off).
func NewRecorder(sink TraceSink) *BasicRecorder { return obs.New(sink) }

// NewMemSink returns an empty in-memory trace sink.
func NewMemSink() *MemSink { return obs.NewMemSink() }

// NewJSONLSink wraps w as a JSONL trace sink.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// OpenJSONLTrace creates (truncating) a JSONL trace file at path.
func OpenJSONLTrace(path string) (*JSONLSink, error) { return obs.OpenJSONL(path) }

// NewMetricTotals returns an empty cross-run counter aggregator.
func NewMetricTotals() *MetricTotals { return obs.NewTotals() }

// MonitorDetectorFactory returns a factory attaching ParaStack with
// cfg through RunConfig.ExtraDetectors.
func MonitorDetectorFactory(cfg MonitorConfig) DetectorFactory {
	return experiment.MonitorDetector(cfg)
}

// TimeoutDetectorFactory returns a factory attaching the fixed-(I,K)
// baseline with cfg through RunConfig.ExtraDetectors.
func TimeoutDetectorFactory(cfg TimeoutConfig) DetectorFactory {
	return experiment.TimeoutDetector(cfg)
}

// WatchdogDetectorFactory returns a factory attaching the activity
// watchdog through RunConfig.ExtraDetectors.
func WatchdogDetectorFactory(timeoutDur time.Duration) DetectorFactory {
	return experiment.WatchdogDetector(timeoutDur)
}

// Sweeps: the resumable campaign orchestrator (package internal/sweep,
// command cmd/pssweep).
type (
	// SweepSpec declares a sweep grid (workloads × platforms × faults ×
	// seeds); JSON-serializable for cmd/pssweep -grid FILE.
	SweepSpec = sweep.Spec
	// SweepDetectorSpec selects the detector(s) a sweep attaches.
	SweepDetectorSpec = sweep.DetectorSpec
	// SweepCell is one fully determined point of an expanded grid.
	SweepCell = sweep.Cell
	// SweepRecord is one line of the durable JSONL results log.
	SweepRecord = sweep.Record
	// SweepOptions tunes a sweep (workers, retries, log, resume).
	SweepOptions = sweep.Options
	// SweepOutcome is what a sweep leaves behind in memory.
	SweepOutcome = sweep.Outcome
	// SweepProgress is a point-in-time progress view.
	SweepProgress = sweep.Progress
	// SweepOrchestrator drives ad-hoc campaigns through the sweep
	// machinery (resume, durability, bounded workers).
	SweepOrchestrator = sweep.Orchestrator
)

// RunSweep executes a sweep over spec's grid; cancelling ctx stops it
// cleanly and resumably.
func RunSweep(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepOutcome, error) {
	return sweep.Run(ctx, spec, opts)
}

// ResumeSweep re-runs spec against the results log at path, skipping
// every cell the log already holds.
func ResumeSweep(ctx context.Context, path string, spec SweepSpec, opts SweepOptions) (*SweepOutcome, error) {
	return sweep.Resume(ctx, path, spec, opts)
}

// LoadSweepLog reads every record of a sweep results log.
func LoadSweepLog(path string) ([]SweepRecord, error) { return sweep.Load(path) }

// LoadSweepSpec reads a JSON SweepSpec from path.
func LoadSweepSpec(path string) (SweepSpec, error) { return sweep.LoadSpec(path) }

// SmokeSweepSpec is the tiny grid behind `make sweep-smoke`.
func SmokeSweepSpec() SweepSpec { return sweep.SmokeSpec() }

// NewSweepOrchestrator opens (or resumes) a results log and returns an
// orchestrator whose Campaign method is a durable, resumable drop-in
// for Campaign.
func NewSweepOrchestrator(ctx context.Context, opts SweepOptions) (*SweepOrchestrator, error) {
	return sweep.NewOrchestrator(ctx, opts)
}

// Results plumbing: the unified sink/reader contract every results
// destination — JSONL sweep logs and the Merkle ledger — satisfies
// (package internal/results).
type (
	// ResultsRecord is one keyed result payload.
	ResultsRecord = results.Record
	// ResultsSink accepts records; SweepOptions.Sink and the daemon's
	// Config.Sink take one.
	ResultsSink = results.Sink
	// ResultsReader replays previously appended records (resume).
	ResultsReader = results.Reader
)

// ErrResultsClosed is returned by any results sink appended to after
// Close.
var ErrResultsClosed = results.ErrClosed

// Tamper-evident results ledger (package internal/ledger, commands
// cmd/pssweep -ledger and cmd/psverify).
type (
	// Ledger is the append-only Merkle results ledger: batched appends,
	// one root per batch chained to HEAD, per-record inclusion proofs,
	// content-addressed dedup by record key.
	Ledger = ledger.Ledger
	// LedgerStore is the raw blob store a Ledger runs on (in-memory or
	// local-disk; implement it to add a backend).
	LedgerStore = ledger.Store
	// LedgerOptions tunes batching (size, flush deadline).
	LedgerOptions = ledger.Options
	// LedgerStats counts appends, dedup hits, and committed batches.
	LedgerStats = ledger.Stats
	// LedgerVerifyReport is a full audit's outcome (VerifyLedger).
	LedgerVerifyReport = ledger.VerifyReport
	// LedgerProblem is one localized verification failure.
	LedgerProblem = ledger.Problem
	// LedgerProofStep is one step of a Merkle inclusion proof.
	LedgerProofStep = ledger.ProofStep
)

// OpenLedger opens (or recovers) a ledger on store.
func OpenLedger(store LedgerStore, opts LedgerOptions) (*Ledger, error) {
	return ledger.Open(store, opts)
}

// VerifyLedger audits a ledger store: roots replayed, chain walked,
// every record re-hashed, every inclusion proof checked. workers
// bounds parallel record hashing (0 = GOMAXPROCS).
func VerifyLedger(store LedgerStore, workers int) (*LedgerVerifyReport, error) {
	return ledger.Verify(store, workers)
}

// NewLedgerMemStore returns an empty in-memory ledger store.
func NewLedgerMemStore() *ledger.MemStore { return ledger.NewMemStore() }

// OpenLedgerDirStore opens (creating if needed) a local-disk ledger
// store rooted at dir — the layout pssweep -ledger and psverify use.
func OpenLedgerDirStore(dir string) (*ledger.DirStore, error) { return ledger.OpenDirStore(dir) }
