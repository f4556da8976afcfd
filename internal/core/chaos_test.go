package core

// Unit tests for the monitor's graceful-degradation machinery under
// chaos: quorum rounds, epoch-based stale-trace rejection, quarantine
// with replacement and amnesty, clock jitter, Stop hardening, and the
// Snapshot/RestoreMonitor failover path. They drive the seams directly
// with a deterministic fake ProbeChaos rather than the probabilistic
// chaos.Injector, so every branch is hit on purpose.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"parastack/internal/chaos"
	"parastack/internal/mpi"
	"parastack/internal/obs"
	"parastack/internal/sim"
	"parastack/internal/topology"
)

// fakeChaos scripts probe fates per rank; the zero value is all-fresh.
type fakeChaos struct {
	fate   func(rank int, now time.Duration) chaos.Fate
	jitter time.Duration
}

func (f *fakeChaos) ProbeFate(rank int, now time.Duration) chaos.Fate {
	if f.fate == nil {
		return chaos.FateOK
	}
	return f.fate(rank, now)
}

func (f *fakeChaos) StepJitter() time.Duration { return f.jitter }

// parkedMonitor builds a parked world (every rank suspended, stacks
// reading OUT_MPI) and a chaos-enabled monitor over it, for driving
// SampleOnce directly.
func parkedMonitor(size, nodes int, cfg Config) (*Monitor, *mpi.World) {
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, size, mpi.Latency{})
	w.Launch(func(r *mpi.Rank) { r.Proc().Suspend() })
	eng.RunAll()
	cluster := topology.New(nodes, size/nodes, 1)
	return New(w, cluster, cfg), w
}

func TestAllFreshChaosRoundMatchesPlain(t *testing.T) {
	m, _ := parkedMonitor(32, 4, Config{Chaos: &fakeChaos{}})
	if got := m.SampleOnce(); got != 1.0 {
		t.Fatalf("all-fresh chaos round Scrout = %v, want 1.0 (all parked ranks OUT_MPI)", got)
	}
	if m.TotalSamples() != 1 {
		t.Fatalf("TotalSamples = %d, want 1", m.TotalSamples())
	}
}

func TestRoundBelowQuorumDiscarded(t *testing.T) {
	fc := &fakeChaos{fate: func(int, time.Duration) chaos.Fate { return chaos.FateLost }}
	m, _ := parkedMonitor(32, 4, Config{Chaos: fc})
	c := len(m.ActiveRanks())
	if got := m.SampleOnce(); got != 0 {
		t.Fatalf("all-lost round returned %v, want 0", got)
	}
	if m.TotalSamples() != 0 {
		t.Fatalf("discarded round entered the model: TotalSamples = %d", m.TotalSamples())
	}
	if n := m.Recorder().Counter(CtrQuorumMisses); n != 1 {
		t.Fatalf("quorum misses = %d, want 1", n)
	}
	if n := m.Recorder().Counter(CtrProbesLost); n != int64(c) {
		t.Fatalf("probes lost = %d, want %d", n, c)
	}
	if n := m.Recorder().Counter(CtrSamples); n != 0 {
		t.Fatalf("sample counter advanced on a discarded round: %d", n)
	}
}

// TestPartialRoundComputesScroutOverArrived: with exactly half the set
// lost, the round meets the default 0.5 quorum and Scrout is computed
// over the traces that arrived, not the full set size.
func TestPartialRoundComputesScroutOverArrived(t *testing.T) {
	var lose map[int]bool
	fc := &fakeChaos{fate: func(r int, _ time.Duration) chaos.Fate {
		if lose[r] {
			return chaos.FateLost
		}
		return chaos.FateOK
	}}
	m, _ := parkedMonitor(32, 4, Config{Chaos: fc})
	ranks := m.ActiveRanks()
	lose = map[int]bool{}
	for _, r := range ranks[:len(ranks)/2] {
		lose[r] = true
	}
	if got := m.SampleOnce(); got != 1.0 {
		t.Fatalf("half-arrived round Scrout = %v, want 1.0 over the arrived half", got)
	}
	if m.TotalSamples() != 1 {
		t.Fatal("round meeting quorum exactly was discarded")
	}
}

// TestStaleTracesRejectedByEpoch: a stale reply delivers the previous
// round's trace, whose epoch tag no longer matches, so an all-stale
// round is discarded even though every probe "returned".
func TestStaleTracesRejectedByEpoch(t *testing.T) {
	stale := false
	fc := &fakeChaos{fate: func(int, time.Duration) chaos.Fate {
		if stale {
			return chaos.FateStale
		}
		return chaos.FateOK
	}}
	m, _ := parkedMonitor(32, 4, Config{Chaos: fc})
	c := len(m.ActiveRanks())
	m.SampleOnce() // fresh round fills the per-rank trace cache
	stale = true
	m.SampleOnce()
	if m.TotalSamples() != 1 {
		t.Fatalf("stale round entered the model: TotalSamples = %d, want 1", m.TotalSamples())
	}
	if n := m.Recorder().Counter(CtrProbesStale); n != int64(c) {
		t.Fatalf("probes stale = %d, want %d", n, c)
	}
	if n := m.Recorder().Counter(CtrQuorumMisses); n != 1 {
		t.Fatalf("quorum misses = %d, want 1", n)
	}
}

// TestStaleWithEmptyCacheTreatedAsLost: stale replies before any fresh
// trace was ever cached deliver nothing and must not panic.
func TestStaleWithEmptyCacheTreatedAsLost(t *testing.T) {
	fc := &fakeChaos{fate: func(int, time.Duration) chaos.Fate { return chaos.FateStale }}
	m, _ := parkedMonitor(32, 4, Config{Chaos: fc})
	if got := m.SampleOnce(); got != 0 {
		t.Fatalf("stale-with-no-cache round returned %v, want 0", got)
	}
	if m.TotalSamples() != 0 {
		t.Fatal("round with no usable trace entered the model")
	}
}

// TestQuarantineReplacesUnreachableRank: a rank that is lost
// QuarantineAfter rounds in a row is quarantined and its slot re-picked
// from the unmonitored ranks; the set keeps its size.
func TestQuarantineReplacesUnreachableRank(t *testing.T) {
	dead := map[int]bool{}
	fc := &fakeChaos{fate: func(r int, _ time.Duration) chaos.Fate {
		if dead[r] {
			return chaos.FateLost
		}
		return chaos.FateOK
	}}
	m, _ := parkedMonitor(32, 4, Config{Chaos: fc})
	victim := m.ActiveRanks()[0]
	size := len(m.ActiveRanks())
	dead[victim] = true
	for i := 0; i < 3; i++ { // default QuarantineAfter
		m.SampleOnce()
	}
	q := m.Quarantined()
	if len(q) != 1 || q[0] != victim {
		t.Fatalf("quarantined = %v, want [%d]", q, victim)
	}
	for _, r := range m.ActiveRanks() {
		if r == victim {
			t.Fatalf("quarantined rank %d still monitored: %v", victim, m.ActiveRanks())
		}
	}
	if len(m.ActiveRanks()) != size {
		t.Fatalf("set size %d after replacement, want %d (world has spare ranks)",
			len(m.ActiveRanks()), size)
	}
	if n := m.Recorder().Counter(CtrQuarantines); n != 1 {
		t.Fatalf("quarantine counter = %d, want 1", n)
	}
}

// TestQuarantineAmnestyWhenPoolExhausted: in a world with no spare
// ranks, the first quarantine shrinks the set; the second finds the
// pool dry and paroles the earlier exile instead of shrinking toward
// silence.
func TestQuarantineAmnestyWhenPoolExhausted(t *testing.T) {
	dead := map[int]bool{}
	fc := &fakeChaos{fate: func(r int, _ time.Duration) chaos.Fate {
		if dead[r] {
			return chaos.FateLost
		}
		return chaos.FateOK
	}}
	// C=4 × NumSets=2 over 8 ranks: every rank is monitored, zero spares.
	m, _ := parkedMonitor(8, 2, Config{C: 4, NumSets: 2, Chaos: fc})
	first := m.ActiveRanks()[0]
	dead[first] = true
	for i := 0; i < 3; i++ {
		m.SampleOnce()
	}
	if len(m.ActiveRanks()) != 3 {
		t.Fatalf("first quarantine in a spare-less world should shrink the set: %v", m.ActiveRanks())
	}
	delete(dead, first) // rank recovers, but stays exiled for now
	second := m.ActiveRanks()[0]
	dead[second] = true
	for i := 0; i < 3; i++ {
		m.SampleOnce()
	}
	if n := m.Recorder().Counter(CtrAmnesties); n != 1 {
		t.Fatalf("amnesty counter = %d, want 1", n)
	}
	q := m.Quarantined()
	if len(q) != 1 || q[0] != second {
		t.Fatalf("quarantined after amnesty = %v, want only [%d]", q, second)
	}
	found := false
	for _, r := range m.ActiveRanks() {
		if r == first {
			found = true
		}
	}
	if !found {
		t.Fatalf("paroled rank %d not returned to service: %v", first, m.ActiveRanks())
	}
}

// TestClockJitterDelaysSampling: positive StepJitter stretches every
// sampling step, so the same wall of virtual time yields fewer samples.
func TestClockJitterDelaysSampling(t *testing.T) {
	samples := func(jitter time.Duration) int {
		app := testApp{iters: 400, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 14}
		eng, _, m := launch(5, 8, 4, app, Config{C: 4, Chaos: &fakeChaos{jitter: jitter}})
		eng.Run(20 * time.Second)
		return m.TotalSamples()
	}
	plain, jittered := samples(0), samples(2*time.Second)
	if jittered >= plain {
		t.Fatalf("2s jitter did not slow sampling: %d samples vs %d without", jittered, plain)
	}
	if jittered == 0 {
		t.Fatal("jittered monitor took no samples at all")
	}
}

// TestStopBeforeStartIsSafeNoOp (satellite): a monitor stopped before
// Start must neither sample nor report when the simulation runs.
func TestStopBeforeStartIsSafeNoOp(t *testing.T) {
	app := testApp{iters: 200, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 14}
	eng := sim.NewEngine(9)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	m := New(w, topology.New(2, 4, 9), Config{C: 4})
	m.Stop()
	w.Launch(app.body)
	m.Start()
	eng.Run(10 * time.Minute)
	if !w.Done() {
		t.Fatal("app did not complete")
	}
	if m.Report() != nil {
		t.Fatalf("stopped monitor reported: %+v", m.Report())
	}
	if n := m.Recorder().Counter(CtrSamples); n != 0 {
		t.Fatalf("stopped monitor took %d samples", n)
	}
}

// TestStopFreezesEventsAndCounters (satellite): after Stop fires
// mid-run, no further sampling events are emitted and the sample
// counter stays where it was.
func TestStopFreezesEventsAndCounters(t *testing.T) {
	sink := obs.NewMemSink()
	app := testApp{iters: 4000, baseCompute: 10 * time.Millisecond, skew: 40 * time.Millisecond, collBytes: 1 << 14}
	eng := sim.NewEngine(9)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	m := New(w, topology.New(2, 4, 9), Config{C: 4, Recorder: obs.New(sink)})
	w.Launch(app.body)
	m.Start()
	const stopAt = 30 * time.Second
	var atStop int64
	eng.At(sim.Time(stopAt), func() {
		m.Stop()
		atStop = m.Recorder().Counter(CtrSamples)
	})
	eng.Run(3 * time.Minute)
	if atStop == 0 {
		t.Fatal("monitor took no samples before Stop")
	}
	if n := m.Recorder().Counter(CtrSamples); n != atStop {
		t.Fatalf("sample counter moved after Stop: %d → %d", atStop, n)
	}
	// One grace step: Stop is observed at the monitor's next wakeup, so
	// the last event can land up to one sampling step past stopAt.
	grace := stopAt + 2*m.Interval()
	for _, e := range sink.Kind(EvSample) {
		if e.T > grace {
			t.Fatalf("sample event at %v, after Stop at %v", e.T, stopAt)
		}
	}
	if m.Report() != nil {
		t.Fatalf("stopped monitor delivered a verdict: %+v", m.Report())
	}
}

// TestSnapshotRestoreRoundTrip: a restored monitor carries the learned
// interval, model samples, sets, rotation position, and quarantine
// list — and the snapshot is isolated from the donor's later mutation.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dead := map[int]bool{}
	fc := &fakeChaos{fate: func(r int, _ time.Duration) chaos.Fate {
		if dead[r] {
			return chaos.FateLost
		}
		return chaos.FateOK
	}}
	cfg := Config{Chaos: fc}
	m, w := parkedMonitor(32, 4, cfg)
	victim := m.ActiveRanks()[0]
	dead[victim] = true
	for i := 0; i < 40; i++ {
		m.SampleOnce()
	}
	m.I = 800 * time.Millisecond // pretend adaptation doubled it

	snap := m.Snapshot()
	wantSamples := m.TotalSamples()
	wantModelN := m.Model().N()
	wantActive := append([]int(nil), m.ActiveRanks()...)

	for i := 0; i < 10; i++ { // donor keeps mutating after the checkpoint
		m.SampleOnce()
	}
	if len(snap.Phases[0]) != wantModelN {
		t.Fatalf("snapshot model mutated by donor: %d samples, want %d", len(snap.Phases[0]), wantModelN)
	}

	r := RestoreMonitor(w, m.cluster, cfg, snap)
	if r.Interval() != 800*time.Millisecond {
		t.Fatalf("restored interval = %v, want 800ms", r.Interval())
	}
	if r.TotalSamples() != wantSamples {
		t.Fatalf("restored TotalSamples = %d, want %d", r.TotalSamples(), wantSamples)
	}
	if r.Model().N() != wantModelN {
		t.Fatalf("restored model has %d samples, want %d", r.Model().N(), wantModelN)
	}
	got := r.ActiveRanks()
	if len(got) != len(wantActive) {
		t.Fatalf("restored active set %v, want %v", got, wantActive)
	}
	for i := range got {
		if got[i] != wantActive[i] {
			t.Fatalf("restored active set %v, want %v", got, wantActive)
		}
	}
	q := r.Quarantined()
	if len(q) != 1 || q[0] != victim {
		t.Fatalf("restored quarantine list %v, want [%d]", q, victim)
	}
	if n := r.Recorder().Counter(CtrFailovers); n != 1 {
		t.Fatalf("failover counter = %d, want 1", n)
	}
	// The restored monitor must keep sampling from where the donor left.
	r.SampleOnce()
	if r.TotalSamples() != wantSamples+1 {
		t.Fatalf("restored monitor did not resume sampling: %d", r.TotalSamples())
	}
}

// TestSnapshotRestoreContinuesBitIdentical: a restored monitor's models
// are rebuilt in one step from the checkpointed samples, the donor's
// were maintained sample by sample — and from the restore on the two
// must stay indistinguishable: same history, same fit to the bit, on
// every phase, through evictions and an interval-doubling Halve.
func TestSnapshotRestoreContinuesBitIdentical(t *testing.T) {
	cfg := Config{MaxHistory: 48}
	m, w := parkedMonitor(32, 4, cfg)
	rng := rand.New(rand.NewSource(11))
	draw := func() float64 { return float64(rng.Intn(9)) / 8 }
	for i := 0; i < 130; i++ { // wraps the phase-0 history more than twice
		m.curModel().Add(draw())
	}
	m.NotifyPhase(3)
	for i := 0; i < 20; i++ { // phase 3 stays below capacity
		m.curModel().Add(draw())
	}

	r := RestoreMonitor(w, m.cluster, cfg, m.Snapshot())
	same := func(when string) {
		t.Helper()
		for _, id := range []int{0, 3} {
			dm, rm := m.PhaseModel(id), r.PhaseModel(id)
			if rm == nil {
				t.Fatalf("%s: restored monitor has no phase-%d model", when, id)
			}
			ds, rs := dm.Samples(), rm.Samples()
			if len(ds) != len(rs) {
				t.Fatalf("%s, phase %d: restored history has %d samples, donor %d", when, id, len(rs), len(ds))
			}
			for i := range ds {
				if math.Float64bits(ds[i]) != math.Float64bits(rs[i]) {
					t.Fatalf("%s, phase %d: sample %d is %v, donor has %v", when, id, i, rs[i], ds[i])
				}
			}
			df, dok := dm.Fit()
			rf, rok := rm.Fit()
			if dok != rok || df.MinN != rf.MinN ||
				math.Float64bits(df.Threshold) != math.Float64bits(rf.Threshold) ||
				math.Float64bits(df.P) != math.Float64bits(rf.P) ||
				math.Float64bits(df.E) != math.Float64bits(rf.E) ||
				math.Float64bits(df.Q) != math.Float64bits(rf.Q) {
				t.Fatalf("%s, phase %d: restored fit %+v (%v), donor %+v (%v)", when, id, rf, rok, df, dok)
			}
		}
	}
	same("after restore")
	if r.Phase() != 3 {
		t.Fatalf("restored phase = %d, want 3", r.Phase())
	}
	for i := 0; i < 120; i++ {
		if i == 70 {
			m.halveModels()
			r.halveModels()
		}
		if i%40 == 0 {
			m.NotifyPhase(3 - m.Phase())
			r.NotifyPhase(3 - r.Phase())
		}
		v := draw()
		m.curModel().Add(v)
		r.curModel().Add(v)
		same(fmt.Sprintf("%d samples on", i+1))
	}
}
