// Package core implements the ParaStack monitor: model-based,
// timeout-free hang detection for (simulated) MPI programs, plus hang
// classification and faulty-process identification.
//
// The monitor is a simulated process that samples the runtime state of
// C randomly chosen ranks at randomized intervals and hands each Scrout
// value to the detection kernel (Kernel), which maintains the robust
// model of internal/model, adapts the sampling interval with a runs
// test and verifies hangs with the geometric significance test (§3.1).
// The monitor alternates between disjoint monitor sets to defeat the
// corner case of §3.3, filters transient slowdowns (§3.3), and — on a
// verified hang — classifies it and pinpoints the faulty ranks (§4).
package core

import (
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"parastack/internal/chaos"
	"parastack/internal/detect"
	"parastack/internal/model"
	"parastack/internal/mpi"
	"parastack/internal/obs"
	"parastack/internal/sim"
	"parastack/internal/stack"
	"parastack/internal/topology"
)

// Counter, gauge, and event names the monitor reports through its
// recorder (see Config.Recorder). Counters are maintained even without
// a trace sink; events require one.
const (
	CtrSamples       = "monitor.samples"            // Scrout observations
	CtrSuspicions    = "monitor.suspicions"         // suspicion observations
	CtrDoublings     = "monitor.doublings"          // interval doublings
	CtrRotations     = "monitor.rotations"          // monitor-set rotations
	CtrSlowdowns     = "monitor.slowdowns_filtered" // transient slowdowns filtered
	CtrVerifications = "monitor.verifications"      // verified hangs
	CtrTraces        = "monitor.traces"             // stack traces taken
	CtrPhaseSwitches = "monitor.phase_switches"     // NotifyPhase transitions

	// Degradation counters (nonzero only under Config.Chaos).
	CtrProbesLost   = "monitor.probes_lost"          // probes that returned nothing
	CtrProbesStale  = "monitor.probes_stale"         // stale traces delivered late
	CtrQuorumMisses = "monitor.rounds_below_quorum"  // sampling rounds discarded
	CtrQuarantines  = "monitor.quarantines"          // ranks quarantined as unreachable
	CtrAmnesties    = "monitor.quarantine_amnesties" // pool-dry paroles of quarantined ranks
	CtrFailovers    = "monitor.failovers"            // monitors restored from a snapshot

	GaugeInterval  = "monitor.interval_ms" // current sampling interval I
	GaugeQ         = "monitor.q"           // latest fit's q
	GaugeThreshold = "monitor.threshold"   // latest fit's suspicion threshold
	GaugeRecovery  = "monitor.recovery_ms" // restore → first accepted round

	EvSample     = "sample"       // fields: scrout, suspicion, set, n
	EvSuspicion  = "suspicion"    // fields: streak, k, q, threshold
	EvDoubling   = "doubling"     // fields: interval_us
	EvRotation   = "rotation"     // fields: from, to
	EvModelReady = "model_ready"  // fields: n, threshold, q
	EvSlowdown   = "slowdown"     // fields: streak
	EvVerify     = "verification" // fields: type, suspicions, q, threshold, faulty
	EvPhase      = "phase"        // fields: phase
	EvQuorumMiss = "quorum_miss"  // fields: got, need, set
	EvQuarantine = "quarantine"   // fields: rank, replacement, set
	EvFailover   = "failover"     // fields: samples, sets, down_us
)

// ProbeChaos is the seam through which an infrastructure-chaos layer
// perturbs the monitor's own machinery: each probe RPC is given a fate
// (fresh, lost, or stale) and each sampling step an extra delay. It is
// implemented by *chaos.Injector; tests substitute deterministic fakes.
type ProbeChaos interface {
	// ProbeFate decides the outcome of one probe of rank at virtual
	// time now.
	ProbeFate(rank int, now time.Duration) chaos.Fate
	// StepJitter returns extra delay added to the next sampling step.
	StepJitter() time.Duration
}

// HangType classifies a verified hang by the phase the error lives in
// (alias of the detector-neutral internal/detect type).
type HangType = detect.HangType

const (
	// HangComputation means at least one process was persistently
	// outside MPI: the error is in application code on those ranks.
	HangComputation = detect.HangComputation
	// HangCommunication means every process was stuck inside MPI.
	HangCommunication = detect.HangCommunication
)

// Report is the outcome of a verified hang detection. It is an alias of
// detect.Report, the verdict type shared by every detector, which is
// what lets Monitor satisfy detect.Detector with this very method set.
type Report = detect.Report

// Sample is one Scrout observation, retained for analysis and figures.
type Sample struct {
	T         time.Duration
	Scrout    float64
	Suspicion bool
	Set       int
}

// Config tunes the monitor. The zero value selects the paper's
// defaults; only Alpha is meant to be user-tailored (§3.3).
type Config struct {
	// C is the number of monitored processes per set (default 10).
	C int
	// InitialInterval is I's starting value (default 400ms).
	InitialInterval time.Duration
	// Alpha is the hang-test significance level (default 0.001,
	// i.e. 99.9% confidence).
	Alpha float64
	// RunsBatch is how many samples accumulate between randomness
	// checks during interval adaptation (default 16).
	RunsBatch int
	// RunsAlpha is the runs-test significance level (default 0.05).
	RunsAlpha float64
	// SwitchEvery is the number of observations after which the
	// monitor rotates to the next disjoint set (default 30).
	SwitchEvery int
	// NumSets is how many pairwise-disjoint monitor sets to rotate
	// through (default 2, the paper's configuration; more sets buy
	// resilience to multiple simultaneous faulty processes at no extra
	// sampling cost, per §3.3).
	NumSets int
	// TraceCost is the virtual-time cost one stack trace imposes on a
	// traced process that is executing application code (default 3ms,
	// calibrated to the paper's Table 3 ptrace+libunwind measurements).
	TraceCost time.Duration
	// MaxHistory caps the model's sample history (default 1024).
	MaxHistory int
	// SlowdownGap is the spacing between the stack traces compared by
	// the transient-slowdown filter (default 2I clamped to [4s, 8s]:
	// long enough that anything alive — including a rank inside a
	// multi-second FT transpose — demonstrably moves between traces).
	SlowdownGap time.Duration
	// FaultScans and FaultScanGap control faulty-process
	// identification: a rank must be OUT_MPI in all FaultScans scans,
	// spaced FaultScanGap apart, to be reported (defaults 3, 100ms).
	FaultScans   int
	FaultScanGap time.Duration

	// Chaos, when non-nil, perturbs the monitor's own probes and clock
	// (see internal/chaos). The monitor then degrades gracefully:
	// Scrout is computed over the traces that actually arrived, rounds
	// below quorum are discarded, stale traces are rejected by
	// sample-round epoch, and persistently unreachable ranks are
	// quarantined and replaced. When nil (the default) the sampling
	// path is byte-for-byte the chaos-free one.
	Chaos ProbeChaos
	// Quorum is the minimum fraction of a sampling round's probes that
	// must return fresh traces for the round to count (default 0.5);
	// only meaningful with Chaos.
	Quorum float64
	// QuarantineAfter is how many consecutive lost probes of one rank
	// make the monitor quarantine it and re-pick its slot (default 3);
	// only meaningful with Chaos.
	QuarantineAfter int

	// Ablation switches (all false = the paper's system).
	DisableAdaptation     bool // never double I
	DisableSetSwitch      bool // monitor a single set
	DisableSlowdownFilter bool // skip the transient-slowdown check

	// OnHang, when non-nil, replaces the default action (stopping the
	// engine) after a verified hang.
	OnHang func(*Report)

	// KeepHistory retains Scrout samples in Monitor.History, bounded by
	// MaxHistory with oldest samples evicted first (default off to
	// bound memory in long campaigns).
	KeepHistory bool

	// Recorder receives the monitor's counters, gauges, and structured
	// events (nil selects a private metrics-only recorder, so counters
	// like Doublings always work; obs.Disabled drops everything).
	Recorder obs.Recorder
}

func (c Config) withDefaults() Config {
	orDefault(&c.C, 10)
	orDefault(&c.InitialInterval, 400*time.Millisecond)
	orDefault(&c.Alpha, 0.001)
	orDefault(&c.RunsBatch, 16)
	orDefault(&c.RunsAlpha, 0.05)
	orDefault(&c.SwitchEvery, 30)
	orDefault(&c.NumSets, 2)
	orDefault(&c.TraceCost, 3*time.Millisecond)
	orDefault(&c.MaxHistory, 1024)
	orDefault(&c.FaultScans, 3)
	orDefault(&c.FaultScanGap, 100*time.Millisecond)
	orDefault(&c.Quorum, 0.5)
	orDefault(&c.QuarantineAfter, 3)
	return c
}

// orDefault sets *v to d when *v is the zero value.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// Monitor is a ParaStack instance attached to one simulated world.
type Monitor struct {
	cfg     Config
	w       *mpi.World
	cluster *topology.Cluster

	model  *model.Model
	kernel Kernel
	I      time.Duration

	sets         []topology.MonitorSet
	activeSet    int
	sinceSwitch  int
	totalSamples int

	report *Report

	// history is a ring buffer of the most recent MaxHistory samples:
	// once full, the oldest sample (at histStart) is overwritten in
	// place, so steady-state recording is O(1) and allocation-free
	// instead of the copy-shift eviction it replaced.
	history   []Sample
	histStart int

	// traceScratch and okScratch (which first-traces arrived) are
	// reused by slowdownCheck so the steady-state verification path
	// allocates nothing per check.
	traceScratch []stack.Trace
	okScratch    []bool

	// traced counts the traces taken since the last countTraces, so a
	// round or scan adds to CtrTraces once instead of once per trace.
	traced int64

	// Phase support (§6): nil models map means single-phase operation.
	curPhase int
	models   map[int]*model.Model

	// Chaos-degradation state, allocated only when Config.Chaos is set
	// so the chaos-free sampling path stays untouched (and SampleOnce
	// stays allocation-free). epoch numbers sampling rounds; lastTrace/
	// lastEpoch cache each rank's last fresh trace so a stale reply can
	// deliver — and be rejected as — a previous round's observation.
	chaosOn     bool
	epoch       uint64
	lastTrace   []stack.Trace
	lastEpoch   []uint64 // per-rank epoch of lastTrace; 0 = never probed
	failStreak  []int    // consecutive lost probes, reset on any reply
	quarantined map[int]bool

	// Failover state: set by RestoreMonitor so the first accepted round
	// can report the recovery-time gauge.
	restoredAt       time.Duration
	recoveryRecorded bool

	// Stats observable by experiments (counter-style stats live on the
	// recorder; see Doublings and SlowdownsSeen).
	ModelReadyAt time.Duration // first time the model could fit (0 if never)
	rec          obs.Recorder
	stopped      bool
}

// New attaches a monitor to world w laid out as cluster. It does not
// start sampling until Start is called.
func New(w *mpi.World, cluster *topology.Cluster, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.New(nil) // metrics only: counters work, events are off
	}
	m := &Monitor{
		cfg:     cfg,
		w:       w,
		cluster: cluster,
		model:   model.New(cfg.MaxHistory),
		kernel:  NewKernel(cfg),
		I:       cfg.InitialInterval,
		rec:     rec,
	}
	rec.Gauge(GaugeInterval, float64(m.I.Milliseconds()))
	rng := w.Engine().Rand()
	if cfg.DisableSetSwitch {
		m.sets = []topology.MonitorSet{cluster.PickMonitorSet(rng, cfg.C, nil)}
	} else {
		m.sets = cluster.NDisjointMonitorSets(rng, cfg.NumSets, cfg.C)
		// Drop sets the cluster was too small to fill.
		kept := m.sets[:0]
		for _, s := range m.sets {
			if len(s.Ranks) > 0 {
				kept = append(kept, s)
			}
		}
		m.sets = kept
	}
	if len(m.sets) == 0 {
		// Tiny or degenerate clusters can leave every disjoint set
		// empty; fall back to a single best-effort set so ActiveRanks
		// and sampleRound never index an empty slice.
		m.sets = []topology.MonitorSet{cluster.PickMonitorSet(rng, cfg.C, nil)}
	}
	if cfg.Chaos != nil {
		m.chaosOn = true
		n := w.Size()
		m.lastTrace = make([]stack.Trace, n)
		m.lastEpoch = make([]uint64, n)
		m.failStreak = make([]int, n)
		m.quarantined = make(map[int]bool)
	}
	return m
}

// Interval returns the current maximum sampling interval I.
func (m *Monitor) Interval() time.Duration { return m.I }

// Report returns the hang report, or nil if no hang was verified.
func (m *Monitor) Report() *Report { return m.report }

// Name identifies the monitor as a detect.Detector.
func (m *Monitor) Name() string { return "parastack" }

// History returns retained samples, oldest first (empty unless
// Config.KeepHistory). Once the ring buffer has wrapped, the result is
// a fresh linearized copy; before that it aliases the internal buffer.
func (m *Monitor) History() []Sample {
	if m.histStart == 0 {
		return m.history
	}
	out := make([]Sample, len(m.history))
	n := copy(out, m.history[m.histStart:])
	copy(out[n:], m.history[:m.histStart])
	return out
}

// Model exposes the Scrout model (read-only use intended).
func (m *Monitor) Model() *model.Model { return m.model }

// ActiveRanks returns the ranks of the currently monitored set.
func (m *Monitor) ActiveRanks() []int { return m.sets[m.activeSet].Ranks }

// TotalSamples reports how many Scrout samples the monitor has taken.
func (m *Monitor) TotalSamples() int { return m.totalSamples }

// SampleOnce executes one steady-state sampling round outside the
// simulation loop: trace the active monitor set and fold the Scrout
// value in (see fold: the model update and refit, the runs test and any
// doubling, the decision, the record and the set rotation). The
// monitor's run loop performs exactly these steps per wakeup; SampleOnce
// exposes them so benchmarks (this package's BenchmarkSamplingRound*,
// the core.sample_round_ns_* metrics of go run ./benchmark) can measure
// the per-sample cost — which must stay allocation-free — directly. It
// takes no verification action: a Verify decision is left to the run
// loop's slowdown filter and scans. A round discarded by the
// chaos-degradation quorum rule contributes nothing to the model and
// returns 0.
func (m *Monitor) SampleOnce() float64 {
	scrout, ok := m.sampleRound()
	if !ok {
		return 0
	}
	m.fold(scrout)
	return scrout
}

// Quarantined returns the ranks the monitor has quarantined as
// persistently unreachable, ascending (nil without Config.Chaos).
func (m *Monitor) Quarantined() []int {
	if len(m.quarantined) == 0 {
		return nil
	}
	return slices.Sorted(maps.Keys(m.quarantined))
}

// Recorder returns the monitor's observability recorder.
func (m *Monitor) Recorder() obs.Recorder { return m.rec }

// Doublings reports how many times the sampling interval I was doubled.
func (m *Monitor) Doublings() int { return int(m.rec.Counter(CtrDoublings)) }

// SlowdownsSeen reports how many transient slowdowns the filter caught.
func (m *Monitor) SlowdownsSeen() int { return int(m.rec.Counter(CtrSlowdowns)) }

// Stop makes the monitor exit at its next wakeup (used when detaching,
// and by the chaos layer to crash it). A stopped monitor never delivers
// a verdict and fires no further sampling events or counters — the run
// loop re-checks the flag after every sleep, including those inside the
// slowdown filter and the faulty-rank scans. Stop before Start is a
// safe no-op: the spawned process exits on its first wakeup without
// sampling anything.
func (m *Monitor) Stop() { m.stopped = true }

// Start spawns the monitor process on the world's engine. The monitor
// exits when the application completes, a hang is verified (after
// invoking OnHang or stopping the engine), or Stop is called.
func (m *Monitor) Start() {
	m.w.Engine().SpawnNow("parastack-monitor", m.run)
}

func (m *Monitor) run(p *sim.Proc) {
	eng := m.w.Engine()
	rng := eng.Rand()
	for !m.stopped {
		// Randomized sampling step: rstep = rand(I) + I/2 ∈ [I/2, 3I/2].
		step := time.Duration(rng.Int63n(int64(m.I))) + m.I/2
		if m.chaosOn {
			step += m.cfg.Chaos.StepJitter()
		}
		p.Sleep(step)
		if m.w.Done() || m.stopped {
			return
		}

		scrout, ok := m.sampleRound()
		if !ok {
			// Degraded round (below quorum): nothing enters the model
			// and the suspicion streak neither grows nor resets — the
			// monitor simply learned nothing this wakeup.
			continue
		}
		m.noteRecovery()
		if m.fold(scrout) != Verify {
			continue
		}

		// Candidate hang: apply the transient-slowdown filter.
		if !m.cfg.DisableSlowdownFilter {
			slow := m.slowdownCheck(p)
			if m.stopped {
				return // crashed/detached during the check: no verdict
			}
			if slow {
				m.rec.Count(CtrSlowdowns, 1)
				if m.rec.Enabled() {
					m.rec.Event(time.Duration(eng.Now()), EvSlowdown,
						obs.Int("streak", int64(m.kernel.Streak())))
				}
				m.kernel.Veto()
				m.rotateSet()
				continue
			}
		}
		if m.w.Done() || m.stopped {
			return
		}

		// Verified hang: classify and identify faulty ranks. DetectedAt
		// is the instant of verification; the faulty-rank scans that
		// follow take additional virtual time and must not shift it.
		fit := m.kernel.Fit()
		rep := &Report{
			DetectedAt: time.Duration(eng.Now()),
			Suspicions: m.kernel.Streak(),
			Q:          fit.Q,
			Threshold:  fit.Threshold,
		}
		rep.FaultyRanks = m.identifyFaulty(p)
		if m.stopped {
			return // crashed during the scans: no verdict
		}
		if len(rep.FaultyRanks) > 0 {
			rep.Type = HangComputation
		} else {
			rep.Type = HangCommunication
		}
		m.report = rep
		m.rec.Count(CtrVerifications, 1)
		if m.rec.Enabled() {
			m.rec.Event(rep.DetectedAt, EvVerify,
				obs.Str("type", rep.Type.String()),
				obs.Int("suspicions", int64(rep.Suspicions)),
				obs.F64("q", rep.Q),
				obs.F64("threshold", rep.Threshold),
				obs.Int("faulty", int64(len(rep.FaultyRanks))))
		}
		if m.cfg.OnHang != nil {
			m.cfg.OnHang(rep)
		} else {
			eng.Stop()
		}
		return
	}
}

// fold runs one accepted Scrout sample through the kernel with the
// monitor's actuators: Add (doubling I and halving the models when the
// runs test asks), Decide, the gauges and events of the decision, and
// record. Every decision short of Verify ends the wakeup, so fold also
// rotates the monitor set for those; on Verify the caller owns the
// verification.
func (m *Monitor) fold(scrout float64) Decision {
	now := time.Duration(m.w.Engine().Now())
	md := m.curModel()
	m.totalSamples++
	// The kernel's runs test asks for a doubling while the sampling is
	// not yet random and I is under its ceiling (§3 step 2); the
	// actuators are the monitor's.
	if m.kernel.Add(md, scrout) {
		m.I *= 2
		m.rec.Count(CtrDoublings, 1)
		m.rec.Gauge(GaugeInterval, float64(m.I.Milliseconds()))
		if m.rec.Enabled() {
			m.rec.Event(now, EvDoubling, obs.Dur("interval_us", m.I))
		}
		m.halveModels()
	}

	d := m.kernel.Decide(md, scrout)
	if d == Learning {
		m.record(scrout, false)
		m.rotateSet()
		return d
	}
	fit := m.kernel.Fit()
	m.rec.Gauge(GaugeQ, fit.Q)
	m.rec.Gauge(GaugeThreshold, fit.Threshold)
	if m.kernel.FirstFit() {
		m.ModelReadyAt = now
		if m.rec.Enabled() {
			m.rec.Event(now, EvModelReady,
				obs.Int("n", int64(md.N())),
				obs.F64("threshold", fit.Threshold),
				obs.F64("q", fit.Q))
		}
	}

	m.record(scrout, d != Clear)
	if d != Clear {
		m.rec.Count(CtrSuspicions, 1)
		if m.rec.Enabled() {
			m.rec.Event(now, EvSuspicion,
				obs.Int("streak", int64(m.kernel.Streak())),
				obs.Int("k", int64(m.kernel.K())),
				obs.F64("q", fit.Q),
				obs.F64("threshold", fit.Threshold))
		}
	}
	if d != Verify {
		m.rotateSet()
	}
	return d
}

// record counts and emits the sample, and appends to history when
// enabled. History is bounded by Config.MaxHistory (oldest evicted
// first), so long campaigns with KeepHistory cannot grow without limit;
// eviction overwrites the ring slot in place (O(1), no copy-shift).
func (m *Monitor) record(scrout float64, susp bool) {
	m.rec.Count(CtrSamples, 1)
	if m.rec.Enabled() {
		m.rec.Event(time.Duration(m.w.Engine().Now()), EvSample,
			obs.F64("scrout", scrout),
			obs.Bool("suspicion", susp),
			obs.Int("set", int64(m.activeSet)),
			obs.Int("n", int64(m.curModel().N())))
	}
	if m.cfg.KeepHistory {
		s := Sample{
			T:         time.Duration(m.w.Engine().Now()),
			Scrout:    scrout,
			Suspicion: susp,
			Set:       m.activeSet,
		}
		if len(m.history) < m.cfg.MaxHistory {
			m.history = append(m.history, s)
		} else {
			m.history[m.histStart] = s
			m.histStart++
			if m.histStart == len(m.history) {
				m.histStart = 0
			}
		}
	}
}

// rotateSet advances the observation counter and alternates between the
// two disjoint monitor sets every SwitchEvery observations.
func (m *Monitor) rotateSet() {
	if len(m.sets) < 2 {
		return
	}
	m.sinceSwitch++
	if m.sinceSwitch >= m.cfg.SwitchEvery {
		m.sinceSwitch = 0
		from := m.activeSet
		m.activeSet = (m.activeSet + 1) % len(m.sets)
		m.rec.Count(CtrRotations, 1)
		if m.rec.Enabled() {
			m.rec.Event(time.Duration(m.w.Engine().Now()), EvRotation,
				obs.Int("from", int64(from)),
				obs.Int("to", int64(m.activeSet)))
		}
	}
}

// trace takes one stack trace of a rank, charging the ptrace-style cost
// to processes that are executing application code (tracing a process
// blocked in MPI overlaps with its idle time and is free, matching the
// paper's lightweight-design argument).
func (m *Monitor) trace(rankID int) stack.Trace {
	m.traced++
	r := m.w.Rank(rankID)
	r.Proc().ChargePenalty(m.cfg.TraceCost)
	return r.Observe()
}

// countTraces adds the traces taken since its last call to CtrTraces.
// Every loop of traces calls it before the monitor sleeps or returns,
// so the counter reads the same at every instant another process could
// observe it as when each trace counted itself.
func (m *Monitor) countTraces() {
	if m.traced > 0 {
		m.rec.Count(CtrTraces, m.traced)
		m.traced = 0
	}
}

// sampleRound probes the active set once and computes Scrout over the
// traces that actually arrived. ok is false when the round must be
// discarded: fewer fresh traces than Config.Quorum of the set (probe
// loss, stale replies, or a set emptied by quarantine). Without chaos
// every probe is fresh, the quorum is trivially met, and the round is
// exactly the paper's: the fraction of the active set OUT_MPI right
// now.
func (m *Monitor) sampleRound() (float64, bool) {
	m.epoch++
	ranks := m.sets[m.activeSet].Ranks
	if len(ranks) == 0 {
		return 0, false
	}
	if !m.chaosOn {
		out := 0
		for _, id := range ranks {
			if m.trace(id).State == stack.OutMPI {
				out++
			}
		}
		m.countTraces()
		return float64(out) / float64(len(ranks)), true
	}
	out, got := 0, 0
	for _, id := range ranks {
		tr, epoch, ok := m.probeRound(id)
		switch {
		case !ok: // lost: nothing came back
			m.failStreak[id]++
		case epoch != m.epoch: // stale: reachable, but a previous round's state
			m.failStreak[id] = 0
		default:
			m.failStreak[id] = 0
			got++
			if tr.State == stack.OutMPI {
				out++
			}
		}
	}
	m.countTraces()
	// Quarantine after the probe loop: replacing a rank mutates the
	// set being scanned, so restart the scan after each one.
	for i := 0; i < len(m.sets[m.activeSet].Ranks); i++ {
		if id := m.sets[m.activeSet].Ranks[i]; !m.quarantined[id] && m.failStreak[id] >= m.cfg.QuarantineAfter {
			m.quarantine(id)
			i = -1 // rescan the changed set from its start
		}
	}
	need := int(math.Ceil(m.cfg.Quorum * float64(len(ranks))))
	if need < 1 {
		need = 1
	}
	if got < need {
		m.rec.Count(CtrQuorumMisses, 1)
		if m.rec.Enabled() {
			m.rec.Event(time.Duration(m.w.Engine().Now()), EvQuorumMiss,
				obs.Int("got", int64(got)),
				obs.Int("need", int64(need)),
				obs.Int("set", int64(m.activeSet)))
		}
		return 0, false
	}
	return float64(out) / float64(got), true
}

// probeRound takes one chaos-mediated probe for the current sampling
// round. The returned epoch tags the trace's freshness: a stale reply
// carries the epoch of the round it was actually captured in, and
// sampleRound discards any trace whose epoch is not the current
// round's. A stale reply with nothing cached yet is indistinguishable
// from a loss to the monitor and is treated as one.
func (m *Monitor) probeRound(rankID int) (stack.Trace, uint64, bool) {
	f := m.probeFate(rankID)
	if f == chaos.FateStale && m.lastEpoch[rankID] > 0 {
		return m.lastTrace[rankID], m.lastEpoch[rankID], true
	}
	if f != chaos.FateOK {
		return stack.Trace{}, 0, false
	}
	tr := m.trace(rankID)
	m.lastTrace[rankID] = tr
	m.lastEpoch[rankID] = m.epoch
	return tr, m.epoch, true
}

// probeFresh is the probe the verification paths use (slowdown filter,
// faulty-rank scans): they need evidence about a rank's state right
// now, so a stale reply is as useless as a lost one, and neither
// touches the per-rank trace cache.
func (m *Monitor) probeFresh(rankID int) (stack.Trace, bool) {
	if m.chaosOn && m.probeFate(rankID) != chaos.FateOK {
		return stack.Trace{}, false
	}
	return m.trace(rankID), true
}

// probeFate draws one probe's fate from the chaos layer and counts it
// if it was lost or stale.
func (m *Monitor) probeFate(rankID int) chaos.Fate {
	f := m.cfg.Chaos.ProbeFate(rankID, time.Duration(m.w.Engine().Now()))
	switch f {
	case chaos.FateLost:
		m.rec.Count(CtrProbesLost, 1)
	case chaos.FateStale:
		m.rec.Count(CtrProbesStale, 1)
	}
	return f
}

// quarantine gives up on an unreachable rank: it is removed from
// whichever monitor set holds it and a replacement is drawn from the
// ranks not quarantined and not already monitored — the same
// PickMonitorSet machinery that built the sets (§3.3). Quarantine is
// not a life sentence: when the candidate pool runs dry (sustained
// random probe loss quarantines spuriously, and a long run would
// otherwise exile every rank and starve the monitor into permanent
// silence), all previously quarantined ranks are paroled and the pick
// retried. Truly dead ranks re-enter quarantine within QuarantineAfter
// rounds; live ranks that were exiled by bad luck return to service.
// Only when even parole yields no candidate does the set shrink; a
// fully unreachable world then leaves every round below quorum, which
// is the designed blackout behavior (the monitor stays silent rather
// than guessing).
func (m *Monitor) quarantine(id int) {
	m.quarantined[id] = true
	m.failStreak[id] = 0
	m.rec.Count(CtrQuarantines, 1)
	excl := make(map[int]bool, len(m.quarantined)+len(m.sets)*m.cfg.C)
	for r := range m.quarantined {
		excl[r] = true
	}
	for _, s := range m.sets {
		for _, r := range s.Ranks {
			excl[r] = true
		}
	}
	rng := m.w.Engine().Rand()
	for si := range m.sets {
		ranks := m.sets[si].Ranks
		pos := slices.Index(ranks, id)
		if pos < 0 {
			continue
		}
		picked := m.cluster.PickMonitorSet(rng, 1, excl)
		if len(picked.Ranks) == 0 && len(m.quarantined) > 1 {
			// Amnesty: the pool is dry, so parole everyone except the
			// rank being quarantined right now. Quarantined ranks are
			// never current set members, so dropping them from excl
			// cannot collide with the monitored ranks still excluded.
			for r := range m.quarantined {
				if r != id {
					delete(m.quarantined, r)
					delete(excl, r)
				}
			}
			m.rec.Count(CtrAmnesties, 1)
			picked = m.cluster.PickMonitorSet(rng, 1, excl)
		}
		repl := -1
		if len(picked.Ranks) == 1 {
			repl = picked.Ranks[0]
			ranks[pos] = repl
		} else {
			m.sets[si].Ranks = append(ranks[:pos], ranks[pos+1:]...)
		}
		m.refreshNodes(si)
		if m.rec.Enabled() {
			m.rec.Event(time.Duration(m.w.Engine().Now()), EvQuarantine,
				obs.Int("rank", int64(id)),
				obs.Int("replacement", int64(repl)),
				obs.Int("set", int64(si)))
		}
		return // sets are disjoint: a rank lives in at most one
	}
}

// refreshNodes recomputes a set's active-node list after its ranks
// changed.
func (m *Monitor) refreshNodes(si int) {
	seen := map[int]bool{}
	nodes := m.sets[si].Nodes[:0]
	for _, r := range m.sets[si].Ranks {
		n := m.cluster.NodeOf(r)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	m.sets[si].Nodes = nodes
}

// noteRecovery reports the failover-recovery gauge — virtual time from
// restore to the first sampling round the restored monitor accepted.
func (m *Monitor) noteRecovery() {
	if m.restoredAt == 0 || m.recoveryRecorded {
		return
	}
	m.recoveryRecorded = true
	d := time.Duration(m.w.Engine().Now()) - m.restoredAt
	m.rec.Gauge(GaugeRecovery, float64(d.Milliseconds()))
}

// slowdownCheck distinguishes a transient slowdown from a hang using
// two stack traces per process (paper §3.3): if any process passes
// through different MPI functions, or steps in/out of non-polling MPI
// functions, the application is slow but alive.
func (m *Monitor) slowdownCheck(p *sim.Proc) bool {
	gap := m.cfg.SlowdownGap
	if gap == 0 {
		// The gap must comfortably exceed both a slowed process's
		// longest stretch between MPI calls and a healthy long
		// collective (an FT-style transpose), so that anything alive
		// demonstrably moves between the two traces. It scales with I
		// but is clamped to [4s, 8s].
		gap = 2 * m.I
		if gap < 4*time.Second {
			gap = 4 * time.Second
		}
		if gap > 8*time.Second {
			gap = 8 * time.Second
		}
	}
	n := m.w.Size()
	if cap(m.traceScratch) < n {
		m.traceScratch = make([]stack.Trace, n)
		m.okScratch = make([]bool, n)
	}
	// Under chaos either trace of a pair can be missing; a rank only
	// proves liveness when both its probes arrived. Skipped pairs are
	// conservative — they can only push toward the hang verdict, never
	// suppress one. Without chaos every probe arrives.
	first, arrived := m.traceScratch[:n], m.okScratch[:n]
	for i := 0; i < n; i++ {
		first[i], arrived[i] = m.probeFresh(i)
	}
	m.countTraces()
	p.Sleep(gap)
	if m.w.Done() || m.stopped {
		return true // completed (or detached) while we checked
	}
	slow := false
	for i := 0; i < n && !slow; i++ {
		if !arrived[i] {
			continue
		}
		sec, ok := m.probeFresh(i)
		slow = ok && stack.CompareTraces(first[i], sec) == stack.SlowProgress
	}
	m.countTraces()
	return slow
}

// identifyFaulty scans every rank FaultScans times, FaultScanGap apart,
// and returns the ranks observed OUT_MPI in every scan — the paper's §4
// persistence rule that excludes busy-wait flickers. Under chaos a
// rank's probe can be lost mid-scan; a lost probe is no evidence either
// way, but a rank is only accused if at least one scan actually
// observed it OUT_MPI — the monitor never accuses a rank it could not
// see at all.
func (m *Monitor) identifyFaulty(p *sim.Proc) []int {
	n := m.w.Size()
	persistent := make([]bool, n)
	for i := range persistent {
		persistent[i] = true
	}
	var observed []int
	if m.chaosOn {
		observed = make([]int, n)
	}
	for s := 0; s < m.cfg.FaultScans; s++ {
		if s > 0 {
			p.Sleep(m.cfg.FaultScanGap)
			if m.stopped {
				return nil // crashed mid-scan; run() discards the report
			}
		}
		for i := 0; i < n; i++ {
			if !persistent[i] {
				continue
			}
			tr, ok := m.probeFresh(i)
			if !ok {
				continue
			}
			if observed != nil {
				observed[i]++
			}
			if tr.State != stack.OutMPI {
				persistent[i] = false
			}
		}
		m.countTraces()
	}
	var out []int
	for i, stayed := range persistent {
		if stayed && (observed == nil || observed[i] > 0) {
			out = append(out, i)
		}
	}
	return out
}
