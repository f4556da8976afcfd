package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/obs"
	"parastack/internal/sim"
	"parastack/internal/workload"
)

// campaignNarrow is the paper-reproduction path: many short 64-rank
// runs dealt to two workers, each owning one experiment.Runner.
type campaignNarrow struct {
	cells   []campaignCell
	runners []*experiment.Runner
}

type campaignCell struct {
	key string
	rc  experiment.RunConfig
}

const (
	campaignRanks   = 64
	campaignWorkers = 2
	// campaignFixedRuns is how many leading cells (in dealing order)
	// feed the counts and the fingerprint, so both repeat exactly for a
	// seed however many runs the time budget allows after them.
	campaignFixedRuns = 64
	// scalingCells is how many leading cells the worker-scaling
	// differential replays at one and at two workers.
	scalingCells = 40
)

var (
	campaignBenches = []string{"BT", "CG", "LU", "SP"}
	campaignFaults  = []fault.Kind{
		fault.None, fault.ComputationHang, fault.CommunicationDeadlock,
		fault.LostMessage, fault.CollectiveMismatch,
	}
)

// campaignCells builds the 200-cell grid (4 benchmarks x 5 fault kinds
// x 10 seeds) in a seed-shuffled order. Run seeds derive from the
// benchmark seed, so another -seed is another campaign.
func campaignCells(seed int64) []campaignCell {
	var cells []campaignCell
	for _, b := range campaignBenches {
		p := workload.MustLookup(b, "D", campaignRanks)
		for _, k := range campaignFaults {
			for s := int64(1); s <= 10; s++ {
				runSeed := seed*1000 + s
				cells = append(cells, campaignCell{
					key: fmt.Sprintf("%s/D/%d|tardis|%s|seed=%d", b, campaignRanks, k, runSeed),
					rc: experiment.RunConfig{
						Params:    p,
						Platform:  noise.Tardis(),
						Seed:      runSeed,
						FaultKind: k,
						Monitor:   &core.Config{},
					},
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// cellAt returns the i-th cell of the endless dealing order: the grid
// repeats with shifted run seeds once all 200 cells have been dealt.
func (w *campaignNarrow) cellAt(i int) campaignCell {
	cell := w.cells[i%len(w.cells)]
	if lap := i / len(w.cells); lap > 0 {
		cell.rc.Seed += int64(lap) * 10
		cell.key = fmt.Sprintf("%s|lap=%d", cell.key, lap)
	}
	return cell
}

func (w *campaignNarrow) setup(c *runCtx) error {
	w.cells = campaignCells(c.seed)
	w.runners = make([]*experiment.Runner, campaignWorkers)
	// Warm-up: one whole clean CG run per worker. The first Run
	// allocates the engine and the 64-rank world that every later Run
	// resets, and a full run grows the event and message pools to working
	// size. It is the same run whatever the shuffle dealt first, so
	// setup_s does not depend on the seed.
	warm := experiment.RunConfig{
		Params: workload.MustLookup("CG", "D", campaignRanks), Platform: noise.Tardis(),
		Seed: c.seed, Monitor: &core.Config{},
	}
	for i := range w.runners {
		w.runners[i] = experiment.NewRunner()
		w.runners[i].Run(warm)
	}
	return nil
}

func (w *campaignNarrow) discard() { w.cells, w.runners = nil, nil }

// campaignRun is one measured run's outcome.
type campaignRun struct {
	index  int
	cell   campaignCell
	res    experiment.RunResult
	wallMS float64
	panic  string
}

// deal hands cells 0, 1, 2, … to the given runners, one at a time from
// one channel, for as long as more(i) allows, and returns the runs in
// dealing order together with the wall time from the first deal to the
// last return.
func (w *campaignNarrow) deal(c *runCtx, runners []*experiment.Runner, more func(i int) bool, parent int) ([]campaignRun, time.Duration) {
	next := make(chan int)
	var mu sync.Mutex
	var runs []campaignRun
	var wg sync.WaitGroup
	start := time.Now()
	for _, rn := range runners {
		wg.Add(1)
		go func(rn *experiment.Runner) {
			defer wg.Done()
			for i := range next {
				run := campaignRun{index: i, cell: w.cellAt(i)}
				t0 := time.Now()
				func() {
					defer func() {
						if r := recover(); r != nil {
							run.panic = fmt.Sprint(r)
						}
					}()
					run.res = rn.Run(run.cell.rc)
				}()
				t1 := time.Now()
				run.wallMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
				c.tr.add(0, parent, "experiment", "run", run.cell.key, t0, t1)
				mu.Lock()
				runs = append(runs, run)
				mu.Unlock()
			}
		}(rn)
	}
	for i := 0; more(i); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	ordered := make([]campaignRun, len(runs))
	for _, r := range runs {
		ordered[r.index] = r
	}
	return ordered, wall
}

func (w *campaignNarrow) measure(c *runCtx) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := c.tr.reserve(1)
	t0 := time.Now()
	deadline := t0.Add(c.measured())
	runs, wall := w.deal(c, w.runners, func(int) bool { return time.Now().Before(deadline) }, root)
	c.tr.add(root, 0, "bench", "measured_phase", "", t0, t0.Add(wall))
	runtime.ReadMemStats(&ms1)

	var events uint64
	var walls, per100k, delays []float64
	var truth truthTally
	fixed := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	for _, r := range runs {
		c.attempted++
		if r.panic != "" {
			c.failed++
			continue
		}
		events += r.res.Events
		walls = append(walls, r.wallMS)
		if r.res.Events > 0 {
			per100k = append(per100k, r.wallMS*1e5/float64(r.res.Events))
		}
		kind := r.cell.rc.FaultKind
		truth.add(classifyRun(kind, &r.res), describeRun(r.cell.key, kind, &r.res))
		if r.res.Detected {
			delays = append(delays, r.res.Delay.Seconds())
		}
		if r.index < campaignFixedRuns {
			addSnapshot(&fixed, r.res.Metrics)
			c.rows = append(c.rows, rowOf(r.cell.key, &r.res))
		}
	}
	n := len(runs)
	c.counts["runs"] = n
	c.counts["workers"] = len(w.runners)
	c.counts["fixed_runs"] = len(c.rows)
	truth.publish(c)

	sec := wall.Seconds()
	c.set("work_per_s", float64(events)/sec)
	// The cells differ 30x in length (a faulty BT run ends at detection,
	// a clean SP run does not), so the median run wall follows the seed's
	// shuffle, not the code. Per 100k simulated events it is one number.
	c.set("unit_wall_ms_p50", median(per100k))
	c.set("alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n*campaignRanks))
	c.set("experiment.runs_per_s", float64(n)/sec)
	c.set("experiment.run_busy_s", sum(walls)/1e3)
	c.set("core.detect_delay_sim_s_p50", median(delays))
	setSimCounts(c, fixed)

	if c.tr != nil {
		w.workerScaling(c)
	}
	return nil
}

// workerScaling replays the leading cells once on two workers and once
// on one worker at GOMAXPROCS=1: 2.0 is ideal scaling, 1.0 means the
// second core bought nothing.
func (w *campaignNarrow) workerScaling(c *runCtx) {
	cells := c.scaled(scalingCells, 4)
	c.counts["scaling_cells"] = cells
	leading := func(i int) bool { return i < cells }
	two, wall2 := w.deal(c, w.runners, leading, 0)
	prev := runtime.GOMAXPROCS(1)
	one, wall1 := w.deal(c, w.runners[:1], leading, 0)
	runtime.GOMAXPROCS(prev)
	if wall1 > 0 && wall2 > 0 {
		c.set("experiment.worker_scaling", (float64(len(two))/wall2.Seconds())/(float64(len(one))/wall1.Seconds()))
	}
}

// addSnapshot sums counters and keeps the maximum of each gauge.
func addSnapshot(into *obs.Snapshot, s obs.Snapshot) {
	for k, v := range s.Counters {
		into.Counters[k] += v
	}
	for k, v := range s.Gauges {
		if v > into.Gauges[k] {
			into.Gauges[k] = v
		}
	}
}

// setSimCounts publishes the engine and monitor counters of the
// workload's fixed leading runs.
func setSimCounts(c *runCtx, s obs.Snapshot) {
	ctr := func(name string) float64 { return float64(s.Counters[name]) }
	c.set("sim.events", ctr(sim.CtrEvents))
	c.set("sim.sleeps", ctr(sim.CtrSleeps))
	c.set("sim.spawns", ctr(sim.CtrSpawns))
	c.set("sim.queue_depth_max", s.Gauges[sim.GaugeQueueDepthMax])
	c.set("sim.windows", ctr(sim.CtrWindows))
	c.set("sim.window_shards", ctr(sim.CtrWindowShards))
	c.set("sim.horizon_stalls", ctr(sim.CtrHorizonStalls))
	if w := ctr(sim.CtrWindows); w > 0 {
		c.set("sim.events_per_window", ctr(sim.CtrEvents)/w)
	}
	c.set("core.samples", ctr(core.CtrSamples))
	c.set("core.traces", ctr(core.CtrTraces))
	c.set("core.doublings", ctr(core.CtrDoublings))
	c.set("core.verifications", ctr(core.CtrVerifications))
}

// rowOf projects a run onto its deterministic outcome.
func rowOf(key string, res *experiment.RunResult) runRow {
	row := runRow{
		Seed: res.Seed, Key: key, Events: res.Events,
		FinishedAt: res.FinishedAt.Nanoseconds(), Cause: res.Cause,
	}
	if rep := res.Report; rep != nil {
		row.DetectedAt = rep.DetectedAt.Nanoseconds()
		row.Report = fmt.Sprintf("%d|%v|%v|%d|%g|%g", rep.DetectedAt.Nanoseconds(), rep.Type, rep.FaultyRanks, rep.Suspicions, rep.Q, rep.Threshold)
	}
	return row
}
