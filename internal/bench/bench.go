// Package bench defines the fixed microbenchmark suite behind the
// BENCH_engine.json performance artifact. Every benchmark pins one
// hot path of the simulation substrate:
//
//   - engine/event_scheduling: schedule+fire cycle through the pooled,
//     monomorphic event heap (64 concurrent tickers).
//   - engine/sleep_wake_handoff: the Suspend/Wake round trip behind
//     every blocking MPI call.
//   - engine/proc_sleep: a single process's Sleep loop (the pattern of
//     compute phases and the monitor's sampling timer).
//   - monitor/sampling_round: one steady-state monitor sampling round —
//     trace the active set, update the model, record the sample — which
//     must be allocation-free.
//   - monitor/sampling_round_history: the same round with KeepHistory
//     on (ring-buffer eviction in steady state).
//   - campaign/faulty_run: one end-to-end faulty CG-style run through
//     the experiment harness, reported in simulated events/sec.
//
// cmd/psbench -bench-json (and `make bench-json`) runs the suite via
// testing.Benchmark and writes the results as JSON, so every PR can
// record the perf trajectory and regressions stay visible. The same
// scenarios are mirrored as Benchmark* functions in internal/sim and
// internal/core for `go test -bench` use.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/sim"
	"parastack/internal/topology"
	"parastack/internal/workload"
)

// SchemaVersion identifies the BENCH_engine.json layout; bump on
// incompatible changes.
const SchemaVersion = "parastack-bench/v1"

// Result is one benchmark's measurement. EventsPerSec is populated for
// benchmarks whose op maps 1:1 onto simulation events (engine suite)
// or that report total simulated events (campaign suite); it is the
// headline "how fast does the simulator go" number.
type Result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Ranks is the simulated world size for scaling benchmarks
	// (BENCH_scale.json); zero for the fixed engine/monitor suite.
	Ranks int `json:"ranks,omitempty"`
	// JobsPerSec and P99IngestNs are populated by the parastackd
	// service suite (BENCH_service.json): whole-job throughput of a
	// burst of simulation jobs through the daemon pipeline, and the
	// 99th-percentile admission→dispatch latency of those jobs.
	JobsPerSec  float64 `json:"jobs_per_sec,omitempty"`
	P99IngestNs float64 `json:"p99_ingest_ns,omitempty"`
}

// Report is the full artifact written to BENCH_engine.json.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

// suite is the fixed benchmark list. Names are stable identifiers:
// downstream tooling diffs BENCH_engine.json across PRs by name.
var suite = []struct {
	name string
	fn   func(*testing.B)
	// eventsPerOp scales ops to simulated events for EventsPerSec
	// (0 = use the benchmark's own events metric, negative = none).
	eventsPerOp float64
}{
	{"engine/event_scheduling", benchEventScheduling, 1},
	{"engine/sleep_wake_handoff", benchSleepWakeHandoff, 2}, // wake + yield per op
	{"engine/proc_sleep", benchProcSleep, 1},
	{"monitor/sampling_round", benchSamplingRound(false), -1},
	{"monitor/sampling_round_history", benchSamplingRound(true), -1},
}

// RunSuite executes every benchmark and assembles the report. The
// micro-benchmarks run through testing.Benchmark (their ops are cheap
// enough that N is always in the thousands); the campaign row is a
// full run per iteration and goes through measureRun so its headline
// events/sec figure is an average over at least minMeasureIters runs.
func RunSuite() Report {
	rep := Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range suite {
		r := testing.Benchmark(s.fn)
		res := Result{
			Name:        s.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if s.eventsPerOp > 0 && res.NsPerOp > 0 {
			res.EventsPerSec = s.eventsPerOp * 1e9 / res.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	rep.Benchmarks = append(rep.Benchmarks, measureCampaign())
	return rep
}

// measureCampaign measures the end-to-end faulty campaign run on the
// Runner-reuse path with the averaged measurement loop.
func measureCampaign() Result {
	p := campaignParams()
	rn := experiment.NewRunner()
	return measureRun("campaign/faulty_run", func(i int) uint64 {
		return campaignRun(rn, p, int64(i+1))
	})
}

// WriteJSON runs the suite and writes the indented JSON artifact.
func WriteJSON(w io.Writer) error {
	rep := RunSuite()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteSummary prints a human-readable table of a report.
func WriteSummary(w io.Writer, rep Report) {
	fmt.Fprintf(w, "%-34s %14s %10s %12s %14s\n",
		"benchmark", "ns/op", "B/op", "allocs/op", "events/sec")
	for _, r := range rep.Benchmarks {
		ev := "-"
		if r.EventsPerSec > 0 {
			ev = fmt.Sprintf("%.0f", r.EventsPerSec)
		}
		fmt.Fprintf(w, "%-34s %14.1f %10d %12d %14s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, ev)
		if r.JobsPerSec > 0 {
			fmt.Fprintf(w, "%-34s   jobs/sec=%.1f p99_ingest=%v\n",
				"", r.JobsPerSec, time.Duration(r.P99IngestNs).Round(time.Microsecond))
		}
	}
}

// --- engine suite ---

func benchEventScheduling(b *testing.B) {
	e := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Duration(1+n%37)*time.Microsecond, tick)
		}
	}
	for i := 0; i < 64 && i < b.N; i++ {
		e.After(time.Microsecond, tick)
	}
	b.ResetTimer()
	e.RunAll()
}

func benchSleepWakeHandoff(b *testing.B) {
	e := sim.NewEngine(1)
	blocked := e.SpawnNow("blocked", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Suspend()
		}
	})
	e.SpawnNow("waker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			blocked.Wake()
			p.Yield()
		}
	})
	b.ResetTimer()
	e.RunAll()
}

func benchProcSleep(b *testing.B) {
	e := sim.NewEngine(1)
	e.SpawnNow("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.RunAll()
}

// --- monitor suite ---

func benchSamplingRound(keepHistory bool) func(*testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine(1)
		w := mpi.NewWorld(eng, 256, mpi.Latency{})
		w.Launch(func(r *mpi.Rank) { r.Proc().Suspend() })
		eng.RunAll() // park every rank
		cluster := topology.New(8, 32, 1)
		m := core.New(w, cluster, core.Config{KeepHistory: keepHistory})
		// Reach steady state: model at capacity, history ring wrapped.
		for i := 0; i < 1024+1; i++ {
			m.SampleOnce()
		}
		b.ResetTimer()
		var s float64
		for i := 0; i < b.N; i++ {
			s = m.SampleOnce()
		}
		_ = s
	}
}

// --- campaign suite ---

// campaignParams is the fixed faulty-run workload of the campaign
// benchmark: a CG-style job small enough to finish in well under a
// second, long enough for the detector to convict the injected hang.
func campaignParams() workload.Params {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "bench", Procs: 32}
	p.Iters = 400
	p.Compute = 120 * time.Millisecond
	p.HaloBytes = 16 << 10
	return p
}

// campaignRun executes one faulty campaign run on the shared Runner —
// the campaign steady state, where engine and world are reset, not
// rebuilt — and returns its simulated event count.
func campaignRun(rn *experiment.Runner, p workload.Params, seed int64) uint64 {
	res := rn.Run(experiment.RunConfig{
		Params:    p,
		Platform:  noise.Tardis(),
		PPN:       8,
		Seed:      seed,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	})
	return res.Events
}

// benchFaultyRun is the testing.Benchmark form of the campaign run,
// kept for the allocation-ceiling gate (scale_test.go), which needs
// testing.B's allocation accounting rather than wall-clock averaging.
func benchFaultyRun(b *testing.B) {
	p := campaignParams()
	rn := experiment.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaignRun(rn, p, int64(i+1))
	}
}
