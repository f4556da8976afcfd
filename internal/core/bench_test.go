package core

// Monitor hot-path performance suite: the steady-state sampling round
// (trace the active set, update the model, record the sample) must be
// allocation-free, with or without KeepHistory. go run ./benchmark
// reports the same round as core.sample_round_ns_256/_4096.

import (
	"testing"

	"parastack/internal/mpi"
	"parastack/internal/sim"
	"parastack/internal/topology"
)

var benchScrout float64

// newSteadyStateMonitor builds a parked 256-rank world with a monitor
// whose model and history are pre-filled to capacity, so measurements
// start in steady state (ring wrapped, model at MaxHistory).
func newSteadyStateMonitor(keepHistory bool) *Monitor {
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, 256, mpi.Latency{})
	w.Launch(func(r *mpi.Rank) { r.Proc().Suspend() })
	eng.RunAll() // park every rank; stacks read as "main" (OUT_MPI)
	cluster := topology.New(8, 32, 1)
	m := New(w, cluster, Config{KeepHistory: keepHistory})
	for i := 0; i < m.cfg.MaxHistory+1; i++ {
		m.SampleOnce()
	}
	return m
}

// TestSamplingRoundZeroAlloc pins the headline hot-path property: one
// steady-state sampling round performs zero allocations.
func TestSamplingRoundZeroAlloc(t *testing.T) {
	for _, keep := range []bool{false, true} {
		m := newSteadyStateMonitor(keep)
		avg := testing.AllocsPerRun(200, func() { benchScrout = m.SampleOnce() })
		if avg != 0 {
			t.Errorf("KeepHistory=%v: sampling round allocates %v objects/op, want 0", keep, avg)
		}
	}
}

// TestModelFitZeroAllocSteadyState pins the scratch-ECDF reuse: once
// warm, refitting the model on every sample allocates nothing.
func TestModelFitZeroAllocSteadyState(t *testing.T) {
	m := newSteadyStateMonitor(false)
	md := m.Model()
	for i := 0; i < 2*1024; i++ { // replace the degenerate all-1.0 history
		md.Add(0.5 + 0.05*float64(i%11))
	}
	if _, ok := md.Fit(); !ok {
		t.Fatal("varied distribution did not fit")
	}
	avg := testing.AllocsPerRun(100, func() { md.Fit() })
	if avg != 0 {
		t.Errorf("model fit allocates %v objects/op in steady state, want 0", avg)
	}
}

func BenchmarkSamplingRound(b *testing.B) {
	m := newSteadyStateMonitor(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScrout = m.SampleOnce()
	}
}

func BenchmarkSamplingRoundKeepHistory(b *testing.B) {
	m := newSteadyStateMonitor(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScrout = m.SampleOnce()
	}
}
