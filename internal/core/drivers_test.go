package core_test

// Differential tests of the one detection kernel: the Scrout sequence a
// live core.Monitor recorded, replayed through StreamMonitor and
// through a bare core.Kernel, must reproduce the monitor's decisions.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/model"
	"parastack/internal/noise"
	"parastack/internal/service"
	"parastack/internal/workload"
)

// kernelCell is one recorded run of the differential grid.
type kernelCell struct {
	name string
	res  experiment.RunResult
}

// kernelHistory bounds the model window on both sides of each
// comparison. The monitor's sample history shares the bound, and it
// must hold a whole run.
const kernelHistory = 1 << 13

// recordKernelCells runs BT/CG/LU/SP × {clean, computation hang} × two
// seeds at 64 ranks on Tardis with the monitor configured as cfg, and
// keeps each run's full sample history. Runs are seed-deterministic,
// so they are spread over one Runner per CPU.
func recordKernelCells(t *testing.T, cfg core.Config) []kernelCell {
	t.Helper()
	cfg.KeepHistory, cfg.MaxHistory = true, kernelHistory
	var cells []kernelCell
	var rcs []experiment.RunConfig
	for _, bench := range []string{"BT", "CG", "LU", "SP"} {
		for _, kind := range []fault.Kind{fault.None, fault.ComputationHang} {
			for seed := int64(1); seed <= 2; seed++ {
				mc := cfg
				cells = append(cells, kernelCell{name: fmt.Sprintf("%s/%v/seed=%d", bench, kind, seed)})
				rcs = append(rcs, experiment.RunConfig{
					Params:    workload.MustLookup(bench, "D", 64),
					Platform:  noise.Tardis(),
					Seed:      seed,
					FaultKind: kind,
					Monitor:   &mc,
				})
			}
		}
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rn := experiment.NewRunner()
			for i := range next {
				cells[i].res = rn.Run(rcs[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, c := range cells {
		if n := c.res.Metrics.Counter(core.CtrSamples); int64(len(c.res.History)) != n {
			t.Fatalf("%s: history holds %d of %d samples", c.name, len(c.res.History), n)
		}
	}
	return cells
}

// With adaptation and the transient filter off, core.Monitor's decision
// path is exactly the kernel's, so StreamMonitor fed the monitor's own
// Scrout sequence (T as TUS) must reach the same verdict on the same
// sample, with the same streak, fit and detection time.
func TestStreamMonitorMatchesMonitor(t *testing.T) {
	cells := recordKernelCells(t, core.Config{DisableAdaptation: true, DisableSlowdownFilter: true})
	verdicts := 0
	for _, c := range cells {
		h, want := c.res.History, c.res.Report
		sm := service.NewStreamMonitor(0, kernelHistory)
		at := -1
		for i, s := range h {
			if sm.Ingest(service.StreamSample{TUS: s.T.Microseconds(), Scrout: s.Scrout}) != nil {
				at = i
				break
			}
		}
		got := sm.Report()
		if (got != nil) != (want != nil) {
			t.Errorf("%s: stream verdict %+v, monitor verdict %+v", c.name, got, want)
			continue
		}
		if want == nil {
			continue
		}
		verdicts++
		if at != len(h)-1 {
			t.Errorf("%s: stream verified at sample %d, monitor at sample %d", c.name, at, len(h)-1)
		}
		if got.Suspicions != want.Suspicions || got.Q != want.Q || got.Threshold != want.Threshold ||
			got.DetectedAt != want.DetectedAt.Truncate(time.Microsecond) {
			t.Errorf("%s: stream verdict %+v, monitor verdict %+v", c.name, got, want)
		}
	}
	t.Logf("%d of %d cells reached a verdict", verdicts, len(cells))
	if verdicts < 4 {
		t.Fatalf("only %d of %d cells reached a verdict: the grid does not exercise verification", verdicts, len(cells))
	}
}

// With adaptation on, a fresh kernel replaying a monitor's recorded
// Scrout sequence (halving its model when asked, as the monitor halves
// its models) reproduces every sample's suspicion flag and the
// monitor's doublings.
func TestKernelReplayMatchesMonitor(t *testing.T) {
	cells := recordKernelCells(t, core.Config{DisableSlowdownFilter: true})
	doubled := 0
	for _, c := range cells {
		k, md := core.NewKernel(core.Config{}), model.New(kernelHistory)
		doublings := 0
		for i, s := range c.res.History {
			if k.Add(md, s.Scrout) {
				doublings++
				md.Halve()
			}
			d := k.Decide(md, s.Scrout)
			if susp := d == core.Suspect || d == core.Verify; susp != s.Suspicion {
				t.Fatalf("%s sample %d: replayed suspicion %v, monitor recorded %v", c.name, i, susp, s.Suspicion)
			}
		}
		if doublings != c.res.Doublings {
			t.Errorf("%s: replay doubled %d times, monitor %d", c.name, doublings, c.res.Doublings)
		}
		if doublings > 0 {
			doubled++
		}
	}
	t.Logf("%d of %d cells doubled their interval", doubled, len(cells))
	if doubled == 0 {
		t.Fatal("no cell doubled its interval: the grid does not exercise adaptation")
	}
}
