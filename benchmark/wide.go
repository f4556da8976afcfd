package main

import (
	"fmt"
	"runtime"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/workload"
)

// wide is the "at large scale" path: one 4096-rank CG world per run on
// one reused Runner. parallel 0 is wide_serial, 1 is wide_windowed; the
// inputs and run seeds are identical, so the two must agree run by run.
type wide struct {
	parallel int
	ranks    int
	rn       *experiment.Runner
}

const (
	wideRanks = 4096
	wideIters = 30
	widePPN   = 8
	// wideFixedRuns is how many leading runs feed the counts, the
	// fingerprint and the serial/windowed comparison.
	wideFixedRuns = 4
	// wideMinRuns keeps the median meaningful on a slow box.
	wideMinRuns = 3
	// monitorSharePairs is the number of alternating with/without
	// monitor pairs behind core.monitor_share_wide.
	monitorSharePairs = 3
)

// wideParams is the fixed per-rank shape: a CG skeleton of 30
// iterations of 400ms compute and 8KB halos. 400ms (not the legacy
// 20ms) makes a run 13 simulated seconds, so the monitor takes 25-35
// samples per run instead of one.
func wideParams(ranks int) workload.Params {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "wide", Procs: ranks}
	p.Iters = wideIters
	p.Compute = 400 * time.Millisecond
	p.HaloBytes = 8 << 10
	return p
}

func (w *wide) config(seed int64, parallel int, monitored bool) experiment.RunConfig {
	rc := experiment.RunConfig{
		Params:   wideParams(w.ranks),
		Platform: noise.Tardis(),
		PPN:      widePPN,
		Seed:     seed,
		Parallel: parallel,
	}
	if monitored {
		rc.Monitor = &core.Config{}
	}
	return rc
}

// runSeed is the seed of the i-th measured run (i from 1); 0 is the
// warm-up.
func runSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func (w *wide) setup(c *runCtx) error {
	w.ranks = c.scaled(wideRanks, 64) / widePPN * widePPN
	w.rn = experiment.NewRunner()
	w.rn.Run(w.config(runSeed(c.seed, 0), w.parallel, true))
	return nil
}

func (w *wide) discard() { w.rn = nil }

func (w *wide) measure(c *runCtx) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := c.tr.reserve(1)
	start := time.Now()
	deadline := start.Add(c.measured())
	var walls []float64
	var events uint64
	var truth truthTally
	fixed := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	for i := 1; i <= wideMinRuns || time.Now().Before(deadline); i++ {
		rc := w.config(runSeed(c.seed, i), w.parallel, true)
		t0 := time.Now()
		res := w.rn.Run(rc)
		t1 := time.Now()
		c.tr.add(0, root, "experiment", "run", fmt.Sprintf("seed=%d", rc.Seed), t0, t1)
		c.attempted++
		walls = append(walls, float64(t1.Sub(t0).Nanoseconds())/1e6)
		events += res.Events
		truth.add(classifyRun(fault.None, &res), describeRun(fmt.Sprintf("seed=%d", rc.Seed), fault.None, &res))
		if i <= wideFixedRuns {
			addSnapshot(&fixed, res.Metrics)
			c.rows = append(c.rows, rowOf("", &res))
		}
	}
	wall := time.Since(start)
	c.tr.add(root, 0, "bench", "measured_phase", "", start, start.Add(wall))
	runtime.ReadMemStats(&ms1)

	n := len(walls)
	c.counts["runs"] = n
	c.counts["ranks"] = w.ranks
	c.counts["fixed_runs"] = len(c.rows)
	truth.publish(c)
	c.set("work_per_s", float64(events)/(sum(walls)/1e3))
	c.set("unit_wall_ms_p50", median(walls))
	c.set("alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n*w.ranks))
	c.set("experiment.runs_per_s", float64(n)/wall.Seconds())
	c.set("experiment.run_busy_s", sum(walls)/1e3)
	setSimCounts(c, fixed)
	c.set("workload.events_per_rank_iter",
		float64(fixed.Counters["engine.events"])/float64(len(c.rows)*w.ranks*wideIters))

	if w.parallel > 0 {
		w.compareWithSerial(c)
	} else if c.tr != nil {
		w.monitorShare(c, start)
	}
	return nil
}

// compareWithSerial reruns the first measured seed on the serial
// executor (a second Runner, after all timing) and requires the
// windowed run to have produced the same events, finish time and
// report. The parent additionally compares every leading seed of the
// two workloads' reports.
func (w *wide) compareWithSerial(c *runCtx) {
	res := experiment.NewRunner().Run(w.config(runSeed(c.seed, 1), 0, true))
	c.check("windowed_equals_serial", rowsEqual(c.rows[0], rowOf("", &res)),
		"seed %d: windowed %+v, serial %+v", res.Seed, c.rows[0], rowOf("", &res))
}

// rowsEqual is the serial/windowed identity: events, finish time and
// report per seed.
func rowsEqual(a, b runRow) bool {
	return a.Seed == b.Seed && a.Events == b.Events && a.FinishedAt == b.FinishedAt && a.Report == b.Report
}

// monitorShare measures how much of a wide run is the monitor: the
// same seed with and without it, in alternating pairs. On a box so
// disturbed that the measured phase and the pairs together would pass
// three times the time budget it stops early (the pairs run are
// recorded), so the run still ends well inside the driver's limit.
func (w *wide) monitorShare(c *runCtx, start time.Time) {
	var with, without float64
	pairs := 0
	for i := 1; i <= monitorSharePairs && (i == 1 || time.Since(start) < 3*c.measured()); i++ {
		pairs++
		for _, monitored := range []bool{true, false} {
			t0 := time.Now()
			w.rn.Run(w.config(runSeed(c.seed, i), 0, monitored))
			if d := time.Since(t0).Seconds(); monitored {
				with += d
			} else {
				without += d
			}
		}
	}
	c.counts["monitor_share_pairs"] = pairs
	if with > 0 {
		c.set("core.monitor_share_wide", 1-without/with)
	}
}
