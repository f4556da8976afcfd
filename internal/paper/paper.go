// Package paper regenerates every table and figure of the ParaStack
// paper's evaluation (§3 Table 1, §7 Tables 3-10, Figures 2-5 and
// 7-10) on the simulated substrate. Tables and Figures register every
// generator under the name cmd/pssweep -grid paper selects it by.
//
// Each generator writes a human-readable table (or CSV series for
// figures) to an io.Writer and returns the underlying numbers so tests
// can assert on shapes. Options.Runs scales campaign sizes: the
// paper's full run counts take hours of CPU; the defaults reproduce the
// same shapes in minutes.
package paper

import (
	"fmt"
	"io"
	"sort"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/sim"
	"parastack/internal/stats"
	"parastack/internal/timeout"
	"parastack/internal/workload"
)

// Options scales the experiment campaigns.
type Options struct {
	// Runs is the number of erroneous/clean runs per configuration
	// (0 = a small default per table; the paper's counts are noted in
	// each generator).
	Runs int
	// Seed is the base random seed (default 1).
	Seed int64
	// MaxScale caps the largest rank count exercised by the scale
	// experiments (default 4096; the paper goes to 16384).
	MaxScale int
	// Trace, when non-nil, receives the structured events of every run
	// that executes (pssweep -grid paper -trace); runs replayed from a
	// results log emit none.
	Trace obs.Sink
	// Stats, when non-nil, accumulates counter totals across every run
	// that executes (pssweep -grid paper -metrics).
	Stats *obs.Totals
	// Campaign, when non-nil, replaces experiment.Campaign as the
	// engine behind every generator — the seam through which
	// sweep.Orchestrator.Campaign makes paper regeneration resumable
	// (cmd/pssweep -grid paper). The contract matches
	// experiment.Campaign: n seeds of base, results in seed order.
	Campaign func(base experiment.RunConfig, n int, seed0 int64) []experiment.RunResult
}

// campaign routes one campaign through Options.Campaign (or the
// default in-memory experiment.Campaign), threading the observability
// options in.
func (o Options) campaign(rc experiment.RunConfig, n int, seed0 int64) []experiment.RunResult {
	rc = o.attach(rc)
	if o.Campaign != nil {
		return o.Campaign(rc, n, seed0)
	}
	return experiment.Campaign(rc, n, seed0)
}

// attach threads the observability options into one run configuration.
func (o Options) attach(rc experiment.RunConfig) experiment.RunConfig {
	rc.Trace = o.Trace
	rc.Stats = o.Stats
	return rc
}

func (o Options) withDefaults(defRuns int) Options {
	if o.Runs == 0 {
		o.Runs = defRuns
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxScale == 0 {
		o.MaxScale = 4096
	}
	return o
}

// platformWorld returns the noise profile and processes-per-node layout
// for a named platform the way the paper allocates them. The names come
// from this package's own tables, so an unknown one is a bug.
func platformWorld(name string, procs int) (noise.Profile, int) {
	prof, err := noise.Lookup(name)
	if err != nil {
		panic(err)
	}
	return prof, prof.DefaultPPN
}

// fmtAC renders an accuracy/rate as the paper does (1.0, 0.9, 0.0).
func fmtAC(v float64) string { return fmt.Sprintf("%.2f", v) }

// Table1Row is one (I, K) configuration's metrics across benchmarks.
type Table1Row struct {
	I       time.Duration
	K       int
	Metrics []experiment.Metrics // one per Table1Configs entry
}

// Table1Config is one platform/benchmark column of Table 1.
type Table1Config struct {
	Platform string
	Bench    string
	Class    string
}

// Table1Configs are the paper's five columns.
var Table1Configs = []Table1Config{
	{"tianhe2", "FT", "D"},
	{"tianhe2", "FT", "E"},
	{"tardis", "FT", "D"},
	{"tardis", "LU", "D"},
	{"tardis", "SP", "D"},
}

// Table1 reproduces Table 1: the fixed-(I,K) timeout baseline's
// accuracy, false-positive rate, and response delay across platforms,
// benchmarks, and input sizes at scale 256. The paper uses 10 erroneous
// runs per configuration.
func Table1(w io.Writer, opt Options) []Table1Row {
	opt = opt.withDefaults(4)
	iks := []struct {
		I time.Duration
		K int
	}{
		{400 * time.Millisecond, 5},
		{400 * time.Millisecond, 10},
		{800 * time.Millisecond, 5},
		{800 * time.Millisecond, 10},
	}
	rows := make([]Table1Row, 0, len(iks))
	fmt.Fprintf(w, "Table 1: fixed-timeout baseline at scale 256 (%d erroneous runs per cell)\n", opt.Runs)
	fmt.Fprintf(w, "%-22s", "config")
	for _, c := range Table1Configs {
		fmt.Fprintf(w, " | %-8s %-5s", c.Platform, c.Bench+"("+c.Class+")")
	}
	fmt.Fprintln(w)
	for _, ik := range iks {
		row := Table1Row{I: ik.I, K: ik.K}
		for ci, c := range Table1Configs {
			prof, ppn := platformWorld(c.Platform, 256)
			params := workload.MustLookup(c.Bench, c.Class, 256)
			rs := opt.campaign(experiment.RunConfig{
				Params:    params,
				Platform:  prof,
				PPN:       ppn,
				FaultKind: fault.ComputationHang,
				Timeout:   &timeout.Config{C: 10, Interval: ik.I, K: ik.K},
			}, opt.Runs, opt.Seed+int64(ci*1000))
			row.Metrics = append(row.Metrics, experiment.Aggregate(rs))
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "I=%-6v K=%-10d", ik.I, ik.K)
		for _, m := range row.Metrics {
			fmt.Fprintf(w, " | AC %s FP %s D %4.1fs", fmtAC(m.Accuracy), fmtAC(m.FPRate), m.Delay.Mean)
		}
		fmt.Fprintln(w)
	}
	return rows
}

// Table3Result is the single-process stack-trace overhead measurement.
type Table3Result struct {
	Interval  time.Duration
	CleanSecs float64
	Ot        float64 // total overhead seconds
	N         int     // number of stack traces
}

// Table3 reproduces Table 3: total ptrace+unwind overhead Ot and trace
// count n for a single-process HPL run traced at 10ms and 100ms fixed
// intervals (paper: clean 185.05s; Ot 50.88s/7.52s; n 18220/1870).
func Table3(w io.Writer, opt Options) []Table3Result {
	opt = opt.withDefaults(1)
	params := workload.MustLookup("HPL", "8e4", 256)
	params.Spec = workload.Spec{Name: "HPL", Class: "15000", Procs: 1}
	// Single-process HPL on a 15000² matrix: ≈185s clean.
	params.Compute = time.Duration(3 * 185.0 / float64(params.Iters) * float64(time.Second))
	params.HaloBytes = 4096

	run := func(traceEvery time.Duration) (float64, int) {
		res := experiment.Run(opt.attach(experiment.RunConfig{
			Params:   params,
			Platform: noise.Tardis(),
			PPN:      1,
			Seed:     opt.Seed,
		}))
		if traceEvery == 0 {
			return res.FinishedAt.Seconds(), 0
		}
		// Raw fixed-interval tracer (Table 3 measures stack-trace cost
		// alone, without the model).
		resT := runTraced(params, traceEvery, opt.Seed)
		return resT.secs, resT.n
	}

	clean, _ := run(0)
	var out []Table3Result
	fmt.Fprintf(w, "Table 3: single-process HPL stack-trace overhead (clean %.2fs; paper: 185.05s)\n", clean)
	for _, iv := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond} {
		secs, n := run(iv)
		r := Table3Result{Interval: iv, CleanSecs: clean, Ot: secs - clean, N: n}
		out = append(out, r)
		fmt.Fprintf(w, "  interval %-6v  Ot %6.2fs  n %6d   (paper: %s)\n",
			iv, r.Ot, r.N, map[time.Duration]string{
				10 * time.Millisecond:  "Ot 50.88s n 18220",
				100 * time.Millisecond: "Ot 7.52s n 1870",
			}[iv])
	}
	return out
}

// PerfResult is one benchmark's runtime under a monitor setting.
type PerfResult struct {
	Bench   string
	Setting string // "clean", "I=100", "I=400"
	Mean    float64
	Std     float64
	Runs    []float64
}

// perfBenches lists Table 4's benchmarks (all eight at 256) and Table
// 5/Figures 7-8's subset at 1024.
var perfBenches256 = []struct{ name, class string }{
	{"BT", "D"}, {"CG", "D"}, {"FT", "D"}, {"LU", "D"},
	{"MG", "E"}, {"SP", "D"}, {"HPL", "8e4"}, {"HPCG", "64"},
}

var perfBenches1024 = []struct{ name, class string }{
	{"BT", "E"}, {"CG", "E"}, {"LU", "E"}, {"SP", "E"},
	{"HPL", "2e5"}, {"HPCG", "64"},
}

// perfTable runs the clean / I=100ms / I=400ms comparison on one
// platform and scale. The paper disables interval adaptation here.
func perfTable(w io.Writer, title, platform string, scale int, benches []struct{ name, class string }, opt Options) []PerfResult {
	prof, ppn := platformWorld(platform, scale)
	prof.SlowdownProb = 0 // overhead study: keep runs clean
	settings := []struct {
		label string
		mon   *core.Config
	}{
		{"clean", nil},
		{"I=100", &core.Config{InitialInterval: 100 * time.Millisecond, DisableAdaptation: true}},
		{"I=400", &core.Config{InitialInterval: 400 * time.Millisecond, DisableAdaptation: true}},
	}
	fmt.Fprintf(w, "%s (%d runs each; runtime seconds, HPCG as pseudo-GFLOPS)\n", title, opt.Runs)
	fmt.Fprintf(w, "%-8s", "bench")
	for _, s := range settings {
		fmt.Fprintf(w, " | %-7s mean ± std", s.label)
	}
	fmt.Fprintln(w)
	var out []PerfResult
	for bi, b := range benches {
		params := workload.MustLookup(b.name, b.class, scale)
		fmt.Fprintf(w, "%-8s", b.name)
		for si, s := range settings {
			rs := opt.campaign(experiment.RunConfig{
				Params:   params,
				Platform: prof,
				PPN:      ppn,
				Monitor:  s.mon,
			}, opt.Runs, opt.Seed+int64(bi*100+si*10))
			var secs []float64
			for _, r := range rs {
				if r.Completed {
					v := r.FinishedAt.Seconds()
					if b.name == "HPCG" {
						v = hpcgGFLOPS(v)
					}
					secs = append(secs, v)
				}
			}
			sum := stats.Summarize(secs)
			out = append(out, PerfResult{Bench: b.name, Setting: s.label, Mean: sum.Mean, Std: sum.Std, Runs: secs})
			fmt.Fprintf(w, " | %8.1f ± %5.2f  ", sum.Mean, sum.Std)
		}
		fmt.Fprintln(w)
	}
	return out
}

// hpcgGFLOPS converts an HPCG runtime into the paper's delivered-GFLOPS
// metric, calibrated so the Table 4 reference point (≈280s ↔ 29.1
// GFLOPS at 256 ranks on Tardis) holds.
func hpcgGFLOPS(seconds float64) float64 { return 8148.0 / seconds }

// Table4 reproduces Table 4: runtimes with ParaStack at I=100ms/400ms
// vs clean on Tardis at scale 256 (paper: 5 runs per setting; overhead
// statistically indistinguishable from zero).
func Table4(w io.Writer, opt Options) []PerfResult {
	opt = opt.withDefaults(3)
	return perfTable(w, "Table 4: overhead on tardis @256", "tardis", 256, perfBenches256, opt)
}

// Table5 reproduces Table 5 / Figure 8: overhead percentages on
// Tianhe-2 at scale 1024, plus the per-run series of Figure 7
// (Stampede) when full is requested via Runs >= 5.
func Table5(w io.Writer, opt Options) []PerfResult {
	opt = opt.withDefaults(2)
	res := perfTable(w, "Table 5 / Fig 8: overhead on tianhe2 @1024", "tianhe2", 1024, perfBenches1024, opt)
	// Overhead percentages (paper: I=400 at most 1.14%).
	fmt.Fprintln(w, "overhead vs clean:")
	byBench := map[string]map[string]float64{}
	for _, r := range res {
		if byBench[r.Bench] == nil {
			byBench[r.Bench] = map[string]float64{}
		}
		byBench[r.Bench][r.Setting] = r.Mean
	}
	var names []string
	for n := range byBench {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := byBench[n]["clean"]
		if c == 0 {
			continue
		}
		o100 := (byBench[n]["I=100"] - c) / c * 100
		o400 := (byBench[n]["I=400"] - c) / c * 100
		if n == "HPCG" { // GFLOPS: higher is better, flip sign
			o100, o400 = -o100, -o400
		}
		fmt.Fprintf(w, "  %-6s I=100 %+6.2f%%   I=400 %+6.2f%%\n", n, o100, o400)
	}
	return res
}

// Figure7 reproduces Figure 7's per-run runtime series on Stampede at
// scale 1024 (5 runs per setting, sorted by performance).
func Figure7(w io.Writer, opt Options) []PerfResult {
	opt = opt.withDefaults(3)
	res := perfTable(w, "Figure 7: per-run runtimes on stampede @1024", "stampede", 1024, perfBenches1024, opt)
	fmt.Fprintln(w, "per-run series (sorted):")
	for _, r := range res {
		s := append([]float64(nil), r.Runs...)
		sort.Float64s(s)
		fmt.Fprintf(w, "  %-6s %-6s %v\n", r.Bench, r.Setting, s)
	}
	return res
}

// tracedResult is a raw fixed-interval stack-trace run (Table 3).
type tracedResult struct {
	secs float64
	n    int
}

// runTraced executes params on a single simulated node while a raw
// tracer (no model, no detection) stack-traces rank 0 every traceEvery,
// charging the calibrated ptrace+unwind cost to the traced process.
func runTraced(params workload.Params, traceEvery time.Duration, seed int64) tracedResult {
	eng := sim.NewEngine(seed)
	prof := noise.Tardis()
	w := mpi.NewWorld(eng, params.Procs, prof.Latency())
	prof.Apply(w, eng.Rand(), params.Procs, params.EstimatedDuration())
	n := 0
	// One ptrace attach + unwind costs ~3ms (Table 3: 50.88s/18220).
	// The victim is suspended for that long, and the tracer itself
	// spends it doing the unwind, so the effective period is
	// traceEvery + traceCost — which is exactly what makes the paper's
	// n=18220 at a 10ms interval over a ~236s run.
	const traceCost = 3 * time.Millisecond
	eng.SpawnNow("raw-tracer", func(p *sim.Proc) {
		for !w.Done() {
			p.Sleep(traceEvery)
			if w.Done() {
				return
			}
			w.Rank(0).Proc().ChargePenalty(traceCost)
			_ = w.Rank(0).Stack().Observe()
			p.Sleep(traceCost)
			n++
		}
	})
	w.Launch(params.Body(nil))
	eng.Run(0)
	return tracedResult{secs: time.Duration(w.FinishedAt()).Seconds(), n: n}
}

// Artefact is one table or figure of the evaluation: the name
// pssweep's -table or -fig selects it by, and its generator.
type Artefact struct {
	Name string
	gen  func(w io.Writer, g *generation)
}

// generation is the state one Generate call shares between artefacts:
// the Options, and Table 6's accuracy campaigns once they have run.
type generation struct {
	opt      Options
	accuracy map[string][]AccuracyCell
}

// campaigns returns Table 6's campaigns, running them with Table 6
// itself discarded if no earlier artefact of this call did.
func (g *generation) campaigns() map[string][]AccuracyCell {
	if g.accuracy == nil {
		g.accuracy = Table6(io.Discard, g.opt)
	}
	return g.accuracy
}

// Tables lists every table and study in print order.
var Tables = []Artefact{
	{"1", func(w io.Writer, g *generation) { Table1(w, g.opt) }},
	{"3", func(w io.Writer, g *generation) { Table3(w, g.opt) }},
	{"4", func(w io.Writer, g *generation) { Table4(w, g.opt) }},
	{"5", func(w io.Writer, g *generation) { Table5(w, g.opt) }},
	{"6", func(w io.Writer, g *generation) { g.accuracy = Table6(w, g.opt) }},
	{"7", func(w io.Writer, g *generation) { Table7(w, g.campaigns()) }},
	{"8", func(w io.Writer, g *generation) { Table8(w, g.campaigns()) }},
	{"9", func(w io.Writer, g *generation) { Table9(w, g.opt) }},
	{"10", func(w io.Writer, g *generation) { Table10(w, g.campaigns()) }},
	{"cause", func(w io.Writer, g *generation) { CauseTable(w, g.opt) }},
	{"fp", func(w io.Writer, g *generation) { FalsePositiveStudy(w, g.opt) }},
	{"scale", func(w io.Writer, g *generation) { ScaleStudy(w, g.opt) }},
}

// Figures lists every figure whose data series this package emits.
var Figures = []Artefact{
	{"2", func(w io.Writer, g *generation) { Figure2(w, g.opt) }},
	{"3", func(w io.Writer, g *generation) { Figure3(w, g.opt) }},
	{"4", func(w io.Writer, g *generation) { Figure4(w, g.opt) }},
	{"5", func(w io.Writer, g *generation) { Figure5(w, g.opt) }},
	{"7", func(w io.Writer, g *generation) { Figure7(w, g.opt) }},
	{"9", func(w io.Writer, g *generation) { Figure9(w, g.opt) }},
	{"10", func(w io.Writer, g *generation) { Figure10(w, g.opt) }},
}

// Lookup returns the artefact of list called name.
func Lookup(list []Artefact, name string) (Artefact, bool) {
	for _, a := range list {
		if a.Name == name {
			return a, true
		}
	}
	return Artefact{}, false
}

// Generate prints arts in order, separated by blank lines, through one
// Options value, so a single resumable command (cmd/pssweep -grid
// paper) rebuilds the whole evaluation or any one artefact of it:
// routed through Options.Campaign, every campaign run lands in the
// sweep's durable log and an interrupted regeneration picks up where
// it stopped. Table 6's campaigns run at most once per call.
func Generate(w io.Writer, opt Options, arts []Artefact) {
	g := &generation{opt: opt}
	for i, a := range arts {
		if i > 0 {
			fmt.Fprintln(w)
		}
		a.gen(w, g)
	}
}
