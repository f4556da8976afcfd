package bench

import (
	"testing"
)

// smokeRanks is the reduced sweep `make bench-scale-smoke` runs: big
// enough to exercise the batched-wakeup and pooling paths at two world
// sizes, small enough for CI.
var smokeRanks = []int{64, 256}

// TestScaleSmoke is the CI gate on the scaling pass: events/sec must
// not collapse as the world grows (per-event cost is supposed to be
// independent of N), and the campaign steady state must stay within
// the pooled-allocation budget.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke runs full simulations; skipped in -short")
	}
	evps := make([]float64, len(smokeRanks))
	for i, n := range smokeRanks {
		res := measureScale(n)
		if res.EventsPerSec <= 0 {
			t.Fatalf("%s: no events/sec measured (iterations=%d, ns/op=%.0f)",
				res.Name, res.Iterations, res.NsPerOp)
		}
		evps[i] = res.EventsPerSec
		t.Logf("%s: %.0f events/sec, %d allocs/op, %.1fms/op",
			res.Name, res.EventsPerSec, res.AllocsPerOp, res.NsPerOp/1e6)
	}
	// Throughput sanity: a 4x larger world may pay constant-factor costs
	// (cache footprint, monitor trace width) but must stay within the
	// same order of magnitude — a collapse means some per-collective or
	// per-queue cost became super-linear in N.
	for i := 1; i < len(evps); i++ {
		if evps[i] < evps[i-1]/4 {
			t.Errorf("events/sec collapsed with world size: %d ranks: %.0f, %d ranks: %.0f",
				smokeRanks[i-1], evps[i-1], smokeRanks[i], evps[i])
		}
	}
}

// TestFaultyRunAllocCeiling pins the allocation budget of the campaign
// steady state. The pre-pooling baseline was ~115k allocs/op; the
// issue's acceptance bar is a 5x reduction (23k), and the pools
// actually land two orders of magnitude below it — the ceiling is set
// between the two so real regressions (a pool silently bypassed, a
// closure reintroduced on the per-message path) fail loudly while
// harness-level noise does not.
func TestFaultyRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short")
	}
	r := testing.Benchmark(benchFaultyRun)
	const ceiling = 10_000
	if allocs := r.AllocsPerOp(); allocs > ceiling {
		t.Errorf("campaign/faulty_run allocates %d/op, ceiling %d (pre-pooling baseline ~115k)",
			allocs, ceiling)
	} else {
		t.Logf("campaign/faulty_run: %d allocs/op (ceiling %d)", allocs, ceiling)
	}
}
