package experiment

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/sim"
	"parastack/internal/workload"
)

// goldenKinds spans every reuse-sensitive teardown shape: clean runs
// (everything drains), computation hangs (ranks parked in collectives,
// pooled waiter slices still held by ops), node freezes (a whole
// node's ranks parked OUT_MPI), and communication deadlocks (the
// injector's never-matched receive left in the posted queue).
var goldenKinds = []fault.Kind{
	fault.None,
	fault.ComputationHang,
	fault.NodeFreeze,
	fault.CommunicationDeadlock,
}

// TestRunnerBitIdenticalToFreshRuns is the golden determinism gate for
// the memory-reuse pass: a 16-run campaign (4 fault shapes × 4 seeds)
// executed on one reused Runner must produce RunResults bit-identical
// to fresh engine/world construction per run — same verdicts, same
// virtual timestamps, same event counts, same metric snapshots. Any
// state leaking across Reset (a stale queue entry, a dirty pooled
// object, an unreset counter or random stream) shows up here.
func TestRunnerBitIdenticalToFreshRuns(t *testing.T) {
	rn := NewRunner()
	for _, kind := range goldenKinds {
		for seed := int64(1); seed <= 4; seed++ {
			rc := RunConfig{
				Params:    smallParams(),
				Platform:  noise.Tardis(),
				PPN:       8,
				Seed:      seed,
				FaultKind: kind,
				Monitor:   &core.Config{},
			}
			fresh := Run(rc)
			reused := rn.Run(rc)
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("kind=%v seed=%d: reused Runner diverged from fresh run\nfresh:  %+v\nreused: %+v",
					kind, seed, fresh, reused)
			}
		}
	}
}

// bytesPerRun is the mean heap volume one call of run allocates.
func bytesPerRun(n int, run func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// TestRunnerSteadyStateAllocs pins the per-run allocation budget of the
// reuse path, in objects and in bytes. A fresh 32-rank run pre-pooling
// allocated ~115k times; steady state lands around 1,100 objects and
// 49 KB (goroutine spawns, the topology, the metrics snapshot, result
// slices — the detector model's 24 KB of buffers travel from run to run
// with the Runner), so the ceilings catch any pool that silently stops
// being reused without flaking on harness noise.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short")
	}
	rn := NewRunner()
	rc := RunConfig{
		Params:    smallParams(),
		Platform:  noise.Tardis(),
		PPN:       8,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	}
	seed := int64(0)
	run := func() {
		seed++
		c := rc
		c.Seed = seed
		if res := rn.Run(c); res.Events == 0 {
			t.Fatal("run produced no events")
		}
	}
	run() // warm the pools: first run constructs engine, world, backing arrays
	run()
	avg := testing.AllocsPerRun(3, run)
	bytes := bytesPerRun(3, run)
	const ceiling, byteCeiling = 1_500, 64 << 10
	if avg > ceiling || bytes > byteCeiling {
		t.Errorf("steady-state run allocates %.0f objects, %.0f B; ceilings %d, %d (pre-pooling baseline ~115k objects)",
			avg, bytes, ceiling, byteCeiling)
	} else {
		t.Logf("steady-state run: %.0f allocs/op, %.0f B/op (ceilings %d, %d)", avg, bytes, ceiling, byteCeiling)
	}
}

// TestWindowedRunAllocCeiling: on one driver the windowed executor may
// not allocate more than 1.5x what the serial one does for the same
// run. It used to allocate 20x — every cross-shard wake took its event
// from the waker's pool and returned it to the woken shard's, so one
// side cut fresh slabs all run long (sim.Engine.scheduleWake).
func TestWindowedRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short")
	}
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "wide", Procs: 1024}
	p.Iters = 10
	p.Compute = 400 * time.Millisecond
	perRun := func(parallel int) float64 {
		rn := NewRunner()
		seed := int64(0)
		run := func() {
			seed++
			res := rn.Run(RunConfig{Params: p, Platform: noise.Tardis(), PPN: 8, Seed: seed, Parallel: parallel, Monitor: &core.Config{}})
			if !res.Completed {
				t.Fatalf("Parallel=%d seed %d did not complete", parallel, seed)
			}
		}
		run()
		seed = 0 // measure the warm-up's own seeds again: same work on either executor
		return bytesPerRun(2, run)
	}
	serial, windowed := perRun(0), perRun(1)
	t.Logf("1024-rank run: serial %.0f B, windowed %.0f B", serial, windowed)
	if windowed > 1.5*serial {
		t.Errorf("windowed run allocates %.0f B, more than 1.5x the serial run's %.0f B", windowed, serial)
	}
}

// TestRunnerPanicReleasesRanks: a panic that unwinds through Run must
// not leave the run's rank goroutines parked for ever, on either
// executor, and the Runner must come back bit-identical to a fresh one.
func TestRunnerPanicReleasesRanks(t *testing.T) {
	for _, parallel := range []int{0, 1} {
		rn := NewRunner()
		rc := RunConfig{
			Params:   smallParams(),
			Platform: noise.Tardis(),
			PPN:      8,
			Seed:     1,
			Parallel: parallel,
			Monitor:  &core.Config{},
		}
		rn.Run(rc) // the Runner under test is a warm one
		base := runtime.NumGoroutine()
		poisoned := rc
		poisoned.ExtraDetectors = []DetectorFactory{func(env DetectorEnv) Detector {
			return &bombDetector{eng: env.World.Engine()}
		}}
		for i := 0; i < 5; i++ {
			func() {
				defer func() {
					if r := recover(); r != "detector bomb" {
						t.Fatalf("Parallel=%d: recovered %v, want the bomb", parallel, r)
					}
				}()
				rn.Run(poisoned)
				t.Fatalf("Parallel=%d: poisoned run returned", parallel)
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("Parallel=%d: %d goroutines before the panicking runs, %d after", parallel, base, g)
		}
		if fresh, again := Run(rc), rn.Run(rc); !reflect.DeepEqual(fresh, again) {
			t.Errorf("Parallel=%d: Runner diverged from a fresh run after a panic\nfresh: %+v\nagain: %+v", parallel, fresh, again)
		}
	}
}

// bombDetector panics from a closure event in the middle of the run.
type bombDetector struct{ eng *sim.Engine }

func (b *bombDetector) Name() string { return "bomb" }
func (b *bombDetector) Start() {
	b.eng.After(20*time.Second, func() { panic("detector bomb") })
}
func (b *bombDetector) Report() *core.Report { return nil }
