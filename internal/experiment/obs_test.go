package experiment

import (
	"reflect"
	"runtime"
	"testing"

	"parastack/internal/core"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/sim"
)

// faultyConfig is the standard harness scenario for observability tests.
func faultyConfig() RunConfig {
	return RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	}
}

// virtualOutcome extracts the fields that must be bit-identical across
// reruns: everything decided on the virtual clock.
type virtualOutcome struct {
	Completed  bool
	FinishedAt int64
	Injected   bool
	InjectedAt int64
	Detected   bool
	Delay      int64
	Events     uint64
	Samples    int64
	Doublings  int
}

func outcomeOf(r RunResult) virtualOutcome {
	return virtualOutcome{
		Completed:  r.Completed,
		FinishedAt: int64(r.FinishedAt),
		Injected:   r.Injected,
		InjectedAt: int64(r.InjectedAt),
		Detected:   r.Detected,
		Delay:      int64(r.Delay),
		Events:     r.Events,
		Samples:    r.Metrics.Counter(core.CtrSamples),
		Doublings:  r.Doublings,
	}
}

// A campaign's virtual-time results must not depend on how many OS
// threads execute it: serial and parallel schedules are bit-identical.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	cfg := faultyConfig()
	const n, seed0 = 4, 300

	old := runtime.GOMAXPROCS(1)
	serial := Campaign(cfg, n, seed0)
	runtime.GOMAXPROCS(old)
	parallel := Campaign(cfg, n, seed0)

	for i := range serial {
		a, b := outcomeOf(serial[i]), outcomeOf(parallel[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d diverged across parallelism:\nserial:   %+v\nparallel: %+v",
				serial[i].Seed, a, b)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Errorf("seed %d metric snapshots diverged", serial[i].Seed)
		}
	}
}

// Attaching a trace sink is pure observation: the virtual-time outcome
// of a run must be bit-identical with and without it.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cfg := faultyConfig()
	cfg.Seed = 42
	plain := Run(cfg)

	sink := obs.NewMemSink()
	cfg.Trace = sink
	cfg.TraceProcs = true
	traced := Run(cfg)

	if a, b := outcomeOf(plain), outcomeOf(traced); !reflect.DeepEqual(a, b) {
		t.Errorf("tracing perturbed the run:\nplain:  %+v\ntraced: %+v", a, b)
	}
	if sink.Len() == 0 {
		t.Fatal("trace sink received no events")
	}
	for _, kind := range []string{sim.EvProcSpawn, sim.EvProcSleep, core.EvSample, core.EvVerify} {
		if sink.CountKind(kind) == 0 {
			t.Errorf("trace has no %q events (kinds: %v)", kind, sink.Kinds())
		}
	}
	// Every event must be tagged with the run's seed so campaign traces
	// stay demultiplexable.
	for _, e := range sink.Events() {
		if !e.RunValid || e.Run != 42 {
			t.Fatalf("event %q run tag = %d (valid %v), want 42", e.Kind, e.Run, e.RunValid)
		}
	}
}

// Every run's Metrics snapshot is populated with engine and monitor
// counters, and a shared Totals aggregates them across a campaign.
func TestRunMetricsAndCampaignTotals(t *testing.T) {
	cfg := faultyConfig()
	cfg.Stats = obs.NewTotals()
	const n = 3
	rs := Campaign(cfg, n, 500)

	var wantSamples, wantSpawns int64
	for _, r := range rs {
		if r.Metrics.Counter(core.CtrSamples) == 0 {
			t.Errorf("seed %d: no %s in snapshot", r.Seed, core.CtrSamples)
		}
		if r.Metrics.Counter(sim.CtrSpawns) == 0 {
			t.Errorf("seed %d: no %s in snapshot", r.Seed, sim.CtrSpawns)
		}
		if got := r.Metrics.Counter(sim.CtrEvents); got != int64(r.Events) {
			t.Errorf("seed %d: %s = %d, Events = %d", r.Seed, sim.CtrEvents, got, r.Events)
		}
		// Unwind ran before the snapshot: all spawned procs terminated.
		if sp, ex := r.Metrics.Counter(sim.CtrSpawns), r.Metrics.Counter(sim.CtrProcExits); sp != ex {
			t.Errorf("seed %d: %d spawns but %d exits in snapshot", r.Seed, sp, ex)
		}
		if r.Metrics.Gauge(sim.GaugeQueueDepthMax) <= 0 {
			t.Errorf("seed %d: queue-depth gauge missing", r.Seed)
		}
		wantSamples += r.Metrics.Counter(core.CtrSamples)
		wantSpawns += r.Metrics.Counter(sim.CtrSpawns)
	}
	if cfg.Stats.Runs() != n {
		t.Errorf("Totals.Runs = %d, want %d", cfg.Stats.Runs(), n)
	}
	if got := cfg.Stats.Counter(core.CtrSamples); got != wantSamples {
		t.Errorf("totals %s = %d, want %d", core.CtrSamples, got, wantSamples)
	}
	if got := cfg.Stats.Counter(sim.CtrSpawns); got != wantSpawns {
		t.Errorf("totals %s = %d, want %d", sim.CtrSpawns, got, wantSpawns)
	}
}
