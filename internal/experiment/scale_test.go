package experiment

import (
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/noise"
	"parastack/internal/workload"
)

// TestScaleSmoke is the CI gate on the scaling pass (`make
// bench-scale-smoke`): per-rank work is fixed, so events/sec must not
// collapse as the world grows. A 4x larger world may pay
// constant-factor costs (cache footprint, monitor trace width) but must
// stay within the same order of magnitude; a collapse means some
// per-collective or per-queue cost became super-linear in N.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke runs full simulations; skipped in -short")
	}
	ranks := []int{64, 256}
	evps := make([]float64, len(ranks))
	for i, n := range ranks {
		evps[i] = scaleEventsPerSec(n)
		if evps[i] <= 0 {
			t.Fatalf("%d ranks: no events/sec measured", n)
		}
		t.Logf("%d ranks: %.0f events/sec", n, evps[i])
	}
	for i := 1; i < len(evps); i++ {
		if evps[i] < evps[i-1]/4 {
			t.Errorf("events/sec collapsed with world size: %d ranks: %.0f, %d ranks: %.0f",
				ranks[i-1], evps[i-1], ranks[i], evps[i])
		}
	}
}

// scaleEventsPerSec times clean monitored CG runs (30 iterations of
// 20ms compute + 8KB halos per rank) at one world size through one
// Runner, as campaigns do, until at least three runs and two seconds
// have passed, so one noisy run cannot decide the gate. It returns
// total simulated events over total wall time.
func scaleEventsPerSec(ranks int) float64 {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "scale", Procs: ranks}
	p.Iters = 30
	p.Compute = 20 * time.Millisecond
	p.HaloBytes = 8 << 10
	rn := NewRunner()
	var events uint64
	var elapsed time.Duration
	for i := 0; i < 3 || elapsed < 2*time.Second; i++ {
		start := time.Now()
		r := rn.Run(RunConfig{
			Params:   p,
			Platform: noise.Tardis(),
			PPN:      8,
			Seed:     int64(i + 1),
			Monitor:  &core.Config{},
		})
		elapsed += time.Since(start)
		events += r.Events
	}
	return float64(events) / elapsed.Seconds()
}
