// Ablation benchmarks for the design choices DESIGN.md §5 calls out.
// Each reports the headline quantities as custom metrics, so
// `go test -bench=Ablation -benchmem` doubles as a shape check: how
// detection accuracy, false positives and delay move as one knob of
// the monitor changes. The paper's tables and figures themselves come
// from cmd/pssweep -grid paper.
package parastack_test

import (
	"strconv"
	"testing"
	"time"

	"parastack"
)

// ablationRun executes one faulty CG-like run with a configurable
// monitor and returns (detected, falsePositive, delaySeconds).
func ablationRun(seed int64, cfg parastack.MonitorConfig) parastack.RunResult {
	p := parastack.MustLookupWorkload("CG", "D", 256)
	p.Procs = 64
	p.Iters = 700
	p.Compute = 150 * time.Millisecond
	return parastack.Run(parastack.RunConfig{
		Params:    p,
		Platform:  parastack.Tardis(),
		PPN:       8,
		Seed:      seed,
		FaultKind: parastack.ComputationHang,
		Monitor:   &cfg,
	})
}

// BenchmarkAblationMonitorSetSize sweeps C (paper fixes C=10): tiny C
// flattens Scrout and slows/loses detection; large C costs overhead.
func BenchmarkAblationMonitorSetSize(b *testing.B) {
	for _, c := range []int{2, 5, 10, 20} {
		c := c
		b.Run(benchName("C", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det, delay := 0, 0.0
				const runs = 3
				for s := 0; s < runs; s++ {
					r := ablationRun(int64(i*100+s+1), parastack.MonitorConfig{C: c})
					if r.Detected {
						det++
						delay += r.Delay.Seconds()
					}
				}
				b.ReportMetric(float64(det)/runs, "ACh")
				if det > 0 {
					b.ReportMetric(delay/float64(det), "delay_s")
				}
			}
		})
	}
}

// BenchmarkAblationSetSwitch compares the two-disjoint-set alternation
// against a single fixed set (the §3.3 corner case: with one set and a
// zero threshold, a monitored faulty rank can hide forever).
func BenchmarkAblationSetSwitch(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "two-sets"
		if disable {
			name = "single-set"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det := 0
				const runs = 4
				for s := 0; s < runs; s++ {
					r := ablationRun(int64(i*100+s+1), parastack.MonitorConfig{DisableSetSwitch: disable})
					if r.Detected {
						det++
					}
				}
				b.ReportMetric(float64(det)/runs, "ACh")
			}
		})
	}
}

// BenchmarkAblationSlowdownFilter measures false positives under
// Tianhe-2-style transient slowdowns with and without the filter.
func BenchmarkAblationSlowdownFilter(b *testing.B) {
	run := func(seed int64, disable bool) parastack.RunResult {
		p := parastack.MustLookupWorkload("CG", "D", 256)
		p.Procs = 64
		p.Iters = 700
		p.Compute = 150 * time.Millisecond
		prof := parastack.Tianhe2()
		prof.SlowdownProb = 1 // force a slowdown window every run
		return parastack.Run(parastack.RunConfig{
			Params:   p,
			Platform: prof,
			PPN:      8,
			Seed:     seed,
			Monitor:  &parastack.MonitorConfig{DisableSlowdownFilter: disable},
		})
	}
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "filter-on"
		if disable {
			name = "filter-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fp := 0
				const runs = 3
				for s := 0; s < runs; s++ {
					if run(int64(i*100+s+1), disable).FalsePositive {
						fp++
					}
				}
				b.ReportMetric(float64(fp)/runs, "FP_rate")
			}
		})
	}
}

// BenchmarkAblationAlpha sweeps the significance level: smaller alpha
// means more consecutive suspicions, hence longer delays but higher
// confidence.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.01, 0.001, 0.0001} {
		alpha := alpha
		b.Run(benchFloat("alpha", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det, delay := 0, 0.0
				const runs = 3
				for s := 0; s < runs; s++ {
					r := ablationRun(int64(i*100+s+1), parastack.MonitorConfig{Alpha: alpha})
					if r.Detected {
						det++
						delay += r.Delay.Seconds()
					}
				}
				if det > 0 {
					b.ReportMetric(delay/float64(det), "delay_s")
				}
				b.ReportMetric(float64(det)/runs, "ACh")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

func benchFloat(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'g', -1, 64)
}
