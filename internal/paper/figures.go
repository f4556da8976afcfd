package paper

import (
	"fmt"
	"io"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/model"
	"parastack/internal/noise"
	"parastack/internal/sched"
	"parastack/internal/sim"
	"parastack/internal/stats"
	"parastack/internal/workload"
)

// Figure2 reproduces Figure 2: the dynamic variation of Sout in healthy
// runs of LU, SP and FT at 256 ranks (probed every millisecond in the
// paper; we default to 5ms over the first window seconds to keep the
// series compact). Output is CSV: series,t_seconds,sout.
func Figure2(w io.Writer, opt Options) map[string][]core.SoutPoint {
	opt = opt.withDefaults(1)
	out := map[string][]core.SoutPoint{}
	window := 60 * time.Second
	for _, b := range []struct{ name, class string }{{"LU", "D"}, {"SP", "D"}, {"FT", "D"}} {
		params := workload.MustLookup(b.name, b.class, 256)
		res := experiment.Run(opt.attach(experiment.RunConfig{
			Params:    params,
			Platform:  noise.Tardis(),
			Seed:      opt.Seed,
			ProbeSout: 5 * time.Millisecond,
			WallLimit: window, // only the plotted window is needed
		}))
		out[b.name] = res.Sout
		for _, pt := range res.Sout {
			fmt.Fprintf(w, "%s,%.3f,%.4f\n", b.name, pt.T.Seconds(), pt.Sout)
		}
	}
	return out
}

// Figure3 reproduces Figure 3: Sout of a faulty LU run — periodic
// variation until the injected fault, then a persistently tiny value.
// Output is CSV: t_seconds,sout plus a comment line with the fault time.
func Figure3(w io.Writer, opt Options) (pts []core.SoutPoint, faultAt time.Duration) {
	opt = opt.withDefaults(1)
	params := workload.MustLookup("LU", "D", 256)
	params.Iters = 100 // a ~100s slice of the run is enough for the plot
	res := experiment.Run(opt.attach(experiment.RunConfig{
		Params:    params,
		Platform:  noise.Tardis(),
		Seed:      opt.Seed,
		FaultKind: fault.ComputationHang,
		ProbeSout: 5 * time.Millisecond,
		// No monitor: let the hang persist so the flatline is visible,
		// and cut the run shortly after the fault.
		WallLimit: 130 * time.Second,
	}))
	cut := res.InjectedAt + 20*time.Second
	fmt.Fprintf(w, "# fault injected at %.2fs\n", res.InjectedAt.Seconds())
	for _, pt := range res.Sout {
		if pt.T > cut {
			break
		}
		fmt.Fprintf(w, "%.3f,%.4f\n", pt.T.Seconds(), pt.Sout)
		pts = append(pts, pt)
	}
	return pts, res.InjectedAt
}

// Figure4Panel is one empirical-distribution snapshot of the Scrout
// model at a given sample size.
type Figure4Panel struct {
	N         int
	Threshold float64
	Q         float64
	CDF       map[float64]float64 // value → Fn(value)
}

// Figure4 reproduces Figure 4: the empirical distribution of randomly
// sampled Scrout for LU with the suspicion region at three sample
// sizes. It runs a healthy LU under a history-keeping monitor and
// snapshots the model at three points.
func Figure4(w io.Writer, opt Options) []Figure4Panel {
	opt = opt.withDefaults(1)
	params := workload.MustLookup("LU", "D", 256)
	res := experiment.Run(opt.attach(experiment.RunConfig{
		Params:      params,
		Platform:    noise.Tardis(),
		Seed:        opt.Seed,
		Monitor:     &core.Config{},
		KeepHistory: true,
	}))
	hist := res.History
	var panels []Figure4Panel
	for _, frac := range []float64{0.2, 0.5, 1.0} {
		n := int(frac * float64(len(hist)))
		if n < 12 {
			n = min(12, len(hist))
		}
		m := model.New(0)
		for _, s := range hist[:n] {
			m.Add(s.Scrout)
		}
		fit, ok := m.Fit()
		panel := Figure4Panel{N: n, CDF: map[float64]float64{}}
		if ok {
			panel.Threshold = fit.Threshold
			panel.Q = fit.Q
		}
		ecdf := stats.NewECDF(m.Samples())
		for _, v := range ecdf.Values() {
			panel.CDF[v] = ecdf.F(v)
		}
		panels = append(panels, panel)
		fmt.Fprintf(w, "# panel n=%d threshold=%.2f q=%.2f\n", panel.N, panel.Threshold, panel.Q)
		for _, v := range ecdf.Values() {
			fmt.Fprintf(w, "%d,%.4f,%.4f\n", n, v, ecdf.F(v))
		}
	}
	return panels
}

// Figure5 reproduces Figure 5: the analytic relation among sample size,
// suspicion probability and tolerance error — n(p) = 3.8416·p(1-p)/e²
// against the validity bound 5/p, with the minimizing (pm, nm) per
// tolerance level. Output is CSV: e,p,n_ci,n_validity.
func Figure5(w io.Writer, opt Options) map[float64][2]float64 {
	anchors := map[float64][2]float64{}
	for _, e := range model.ToleranceLevels {
		for p := 0.02; p <= 0.5+1e-9; p += 0.02 {
			ci := stats.Z95Sq * p * (1 - p) / (e * e)
			fmt.Fprintf(w, "%.2f,%.2f,%.1f,%.1f\n", e, p, ci, 5/p)
		}
		// Minimizing point for this tolerance level.
		bestP, bestN := 0.0, 1e18
		for p := 0.005; p <= 0.5; p += 0.005 {
			n := float64(stats.RequiredSampleSize(p, e))
			if n < bestN {
				bestP, bestN = p, n
			}
		}
		anchors[e] = [2]float64{bestP, bestN}
		fmt.Fprintf(w, "# e=%.2f pm=%.3f nm=%.0f\n", e, bestP, bestN)
	}
	return anchors
}

// Figure9 reproduces Figure 9: response-delay histograms over the
// Tardis@256 erroneous campaigns of Table 6 (bins of 2s, as in the
// paper's x-axis).
func Figure9(w io.Writer, opt Options) map[string][]int {
	out := map[string][]int{}
	fmt.Fprintln(w, "Figure 9: response delay distribution, tardis @256 (2s bins)")
	for _, cell := range AccuracyCampaign("tardis", 256, opt) {
		var delays []float64
		for _, r := range cell.Results {
			if r.Detected {
				delays = append(delays, r.Delay.Seconds())
			}
		}
		h := stats.Histogram(delays, 0, 2, 15)
		out[cell.Bench] = h
		fmt.Fprintf(w, "  %-6s %v\n", cell.Bench, h)
	}
	return out
}

// Figure10Result is one batch job's saving.
type Figure10Result struct {
	Savings  []float64
	MeanPct  float64
	Walltime time.Duration
}

// Figure10 reproduces Figure 10: the percentage of allocated batch time
// ParaStack saves by terminating hung HPL jobs early. The paper runs 10
// HPL jobs (≈518s correct runtime) with uniform-random faults in a
// 10-minute slot and reports 35.5% mean savings, approaching 50% with
// more runs.
func Figure10(w io.Writer, opt Options) Figure10Result {
	opt = opt.withDefaults(10)
	// HPL sized so a correct run takes ≈518s on Tardis.
	params := workload.MustLookup("HPL", "8e4", 256)
	params.Compute = time.Duration(float64(params.Compute) * 518.0 / 277.0)
	walltime := 10 * time.Minute
	prof := noise.Tardis()

	var savings []float64
	for i := 0; i < opt.Runs; i++ {
		eng := sim.NewEngine(opt.Seed + int64(i))
		s := sched.New(eng, 8)
		perIter := params.Compute
		minIter := int(30*time.Second/perIter) + 1
		plan := fault.NewRandomPlan(eng.Rand(), fault.ComputationHang, params.Procs, params.Iters, minIter, 32)
		inj := fault.NewInjector(plan)
		job := &sched.Job{
			Name: fmt.Sprintf("hpl-%d", i), Nodes: 8, PPN: 32, Walltime: walltime,
			Latency:           prof.Latency(),
			Profile:           &prof,
			EstimatedDuration: params.EstimatedDuration(),
			Body:              params.Body(inj),
			Monitor:           &core.Config{},
			OnFinish:          func(*sched.Job) { eng.Stop() },
		}
		s.Submit(job)
		eng.Run(2 * time.Hour)
		savings = append(savings, job.Savings()*100)
		fmt.Fprintf(w, "  run %2d: state %-16v saved %5.1f%%\n", i, job.State, job.Savings()*100)
	}
	m := stats.Summarize(savings)
	fmt.Fprintf(w, "Figure 10: mean batch-time savings %.1f%% over %d runs (paper: 35.5%%, →50%% asymptotically)\n",
		m.Mean, opt.Runs)
	return Figure10Result{Savings: savings, MeanPct: m.Mean, Walltime: walltime}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
