package core

import (
	"testing"
	"time"

	"parastack/internal/fault"
	"parastack/internal/mpi"
	"parastack/internal/sim"
	"parastack/internal/topology"
)

// twoPhaseApp alternates between a compute-dominant phase (high Scrout)
// and a communication-dominant phase (long collectives, Scrout ≈ 0),
// notifying the monitor at each transition.
func twoPhaseApp(m *Monitor, inj *fault.Injector, cycles int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		eng := r.World().Engine()
		for c := 0; c < cycles; c++ {
			if r.ID() == 0 {
				m.NotifyPhase(1)
			}
			for it := 0; it < 12; it++ { // compute phase ≈ 12×~80ms
				r.Call("compute_phase", func() {
					r.Compute(60*time.Millisecond +
						time.Duration(eng.Rand().Int63n(int64(40*time.Millisecond))))
					inj.Check(r, c*100+it)
				})
				r.Allreduce(8)
			}
			if r.ID() == 0 {
				m.NotifyPhase(2)
			}
			for it := 0; it < 2; it++ { // IO/transpose phase: ~1.4s inside MPI
				r.Call("pack", func() { r.Compute(30 * time.Millisecond) })
				r.Alltoall(512 << 20) // ≈1.4s on the default fabric
			}
		}
	}
}

func TestPhaseModelsSeparate(t *testing.T) {
	eng := sim.NewEngine(21)
	w := mpi.NewWorld(eng, 16, mpi.Latency{})
	cl := topology.New(4, 4, 21)
	m := New(w, cl, Config{C: 6})
	m.Start()
	w.Launch(twoPhaseApp(m, nil, 30))
	eng.Run(2 * time.Hour)
	if !w.Done() {
		t.Fatal("two-phase app did not complete")
	}
	if m.Report() != nil {
		t.Fatalf("false positive on phased app: %+v", m.Report())
	}
	m1, m2 := m.PhaseModel(1), m.PhaseModel(2)
	if m1 == nil || m2 == nil {
		t.Fatal("phase models missing")
	}
	if m1.N() < 11 {
		t.Fatalf("compute-phase model has only %d samples", m1.N())
	}
	// The communication phase should have a distinctly lower mean
	// Scrout than the compute phase.
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m2.N() > 4 && mean(m1.Samples()) < mean(m2.Samples())+0.2 {
		t.Fatalf("phase separation failed: compute mean %.2f, comm mean %.2f",
			mean(m1.Samples()), mean(m2.Samples()))
	}
}

func TestPhaseAwareDetectionStillWorks(t *testing.T) {
	eng := sim.NewEngine(22)
	w := mpi.NewWorld(eng, 16, mpi.Latency{})
	cl := topology.New(4, 4, 22)
	m := New(w, cl, Config{C: 6})
	m.Start()
	// Hang in the compute phase of cycle 25 (late enough for the model).
	inj := fault.NewInjector(fault.Plan{Kind: fault.ComputationHang, Rank: 9, Iteration: 25*100 + 5})
	w.Launch(twoPhaseApp(m, inj, 60))
	eng.Run(2 * time.Hour)
	rep := m.Report()
	if rep == nil {
		t.Fatal("hang in phased app not detected")
	}
	if rep.Type != HangComputation || len(rep.FaultyRanks) != 1 || rep.FaultyRanks[0] != 9 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestNotifyPhaseResetsStreakAndIsIdempotent(t *testing.T) {
	eng := sim.NewEngine(23)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	cl := topology.New(2, 4, 23)
	m := New(w, cl, Config{C: 4})
	m.kernel.streak = 7
	m.NotifyPhase(3)
	if m.kernel.streak != 0 {
		t.Fatal("phase switch must reset the suspicion streak")
	}
	if m.Phase() != 3 {
		t.Fatalf("phase = %d", m.Phase())
	}
	md := m.PhaseModel(3)
	m.NotifyPhase(3) // no-op
	if m.PhaseModel(3) != md {
		t.Fatal("re-notifying the same phase must not rebuild the model")
	}
	if m.PhaseModel(0) == nil {
		t.Fatal("phase 0 model must always exist")
	}
}

func TestSinglePhaseUnchanged(t *testing.T) {
	eng := sim.NewEngine(24)
	w := mpi.NewWorld(eng, 8, mpi.Latency{})
	cl := topology.New(2, 4, 24)
	m := New(w, cl, Config{C: 4})
	if m.Phase() != 0 {
		t.Fatal("default phase must be 0")
	}
	if m.curModel() != m.model {
		t.Fatal("single-phase monitor must use the primary model")
	}
}

func TestMultiSetRotation(t *testing.T) {
	// Three disjoint sets rotate round-robin every SwitchEvery samples.
	eng := sim.NewEngine(31)
	w := mpi.NewWorld(eng, 64, mpi.Latency{})
	cl := topology.New(8, 8, 31)
	m := New(w, cl, Config{C: 8, NumSets: 3, KeepHistory: true, SwitchEvery: 5})
	if len(m.sets) != 3 {
		t.Fatalf("sets = %d, want 3", len(m.sets))
	}
	seen := map[int]bool{}
	for i, s := range m.sets {
		for _, r := range s.Ranks {
			if seen[r] {
				t.Fatalf("rank %d in more than one set", r)
			}
			seen[r] = true
		}
		if len(s.Ranks) != 8 {
			t.Fatalf("set %d has %d ranks", i, len(s.Ranks))
		}
	}
	m.Start()
	w.Launch(func(r *mpi.Rank) {
		for it := 0; it < 400; it++ {
			r.Call("step", func() {
				r.Compute(40*time.Millisecond +
					time.Duration(eng.Rand().Int63n(int64(40*time.Millisecond))))
			})
			r.Allreduce(8)
		}
	})
	eng.Run(time.Hour)
	setsUsed := map[int]bool{}
	for _, s := range m.History() {
		setsUsed[s.Set] = true
	}
	for i := 0; i < 3; i++ {
		if !setsUsed[i] {
			t.Fatalf("set %d never sampled (used: %v)", i, setsUsed)
		}
	}
	if m.Report() != nil {
		t.Fatalf("false positive: %+v", m.Report())
	}
}

func TestMultiSetDetectsTwoFaultyRanks(t *testing.T) {
	// Two ranks hang simultaneously. With three disjoint sets of 8 over
	// 64 ranks, at least one set avoids both faulty ranks, so a zero
	// Scrout is eventually observable regardless of the threshold.
	eng := sim.NewEngine(32)
	w := mpi.NewWorld(eng, 64, mpi.Latency{})
	cl := topology.New(8, 8, 32)
	m := New(w, cl, Config{C: 8, NumSets: 3})
	m.Start()
	w.Launch(func(r *mpi.Rank) {
		for it := 0; it < 3000; it++ {
			r.Call("step", func() {
				r.Compute(40*time.Millisecond +
					time.Duration(eng.Rand().Int63n(int64(40*time.Millisecond))))
				if it == 700 && (r.ID() == 5 || r.ID() == 41) {
					r.Stack().Push("stuck_kernel")
					r.HangForever()
				}
			})
			r.Allreduce(8)
		}
	})
	eng.Run(2 * time.Hour)
	rep := m.Report()
	if rep == nil {
		t.Fatal("double fault not detected")
	}
	if len(rep.FaultyRanks) != 2 || rep.FaultyRanks[0] != 5 || rep.FaultyRanks[1] != 41 {
		t.Fatalf("faulty = %v, want [5 41]", rep.FaultyRanks)
	}
}
