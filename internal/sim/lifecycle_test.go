package sim

import (
	"runtime"
	"testing"
	"time"
)

// The tests in this file pin the coroutine lifecycle: bodies run on
// pooled runtime coroutines that survive Reset and Unwind, Shutdown
// releases them, a dropped engine's cleanup stops them, and a panicking
// body reaches Run's caller instead of killing the program.

// settledGoroutines forces collections until the goroutine count stops
// moving, so cleanups of engines dropped earlier (by this or another
// test) have stopped their coroutines before a count is compared.
func settledGoroutines() int {
	n := -1
	for i := 0; i < 200; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return m
		}
		n = m
	}
	return n
}

// hangHalf spawns n processes on e: even ones suspend for good, odd
// ones sleep past any Run limit the tests use.
func hangHalf(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.SpawnNow("stuck", func(p *Proc) {
			if p.ID%2 == 0 {
				p.Suspend()
			}
			p.Sleep(time.Hour)
		})
	}
}

// TestLifecycleDroppedEngineReleasesGoroutines: an engine that is run,
// Reset, rerun and unwound keeps its coroutines pooled while it is
// referenced, and releases every one of them once it is dropped.
func TestLifecycleDroppedEngineReleasesGoroutines(t *testing.T) {
	base := settledGoroutines()
	const n = 500
	func() {
		e := NewEngine(1)
		hangHalf(e, n)
		e.Run(time.Minute)
		e.Reset(2)
		hangHalf(e, n)
		e.Run(time.Minute)
		e.Unwind()
		if e.LiveProcs() != 0 {
			t.Fatalf("LiveProcs = %d after Unwind", e.LiveProcs())
		}
		if g := runtime.NumGoroutine(); g < base+n {
			t.Fatalf("%d goroutines with %d pooled coroutines, baseline %d: the pool was not kept", g, n, base)
		}
		runtime.KeepAlive(e)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("dropped engine leaked coroutines: %d goroutines, baseline %d", g, base)
	}
}

// TestLifecycleSteadyStateCycleIsFree: once warm, a Reset → spawn N →
// RunAll cycle reuses every Proc and coroutine: no goroutine is
// created and nothing is allocated.
func TestLifecycleSteadyStateCycleIsFree(t *testing.T) {
	const n = 256
	e := NewEngine(1)
	cycle := func() {
		e.Reset(1)
		for i := 0; i < n; i++ {
			e.SpawnNow("p", func(p *Proc) {
				p.Sleep(time.Microsecond)
				p.Yield()
			})
		}
		e.RunAll()
	}
	cycle()
	cycle()
	before := runtime.NumGoroutine()
	if perProc := testing.AllocsPerRun(10, cycle) / n; perProc != 0 {
		t.Errorf("steady-state cycle allocates %v objects per proc, want 0", perProc)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("steady-state cycles changed the goroutine count: %d → %d", before, after)
	}
	e.Shutdown()
}

// TestLifecycleBodyPanicReachesRunCaller: a panic in a process body
// unwinds Run's caller with the panic's value. The process is Done and
// its coroutine, which the panic ended, is never handed another body;
// the other processes stay parked until Shutdown releases them, and a
// Reset engine runs again.
func TestLifecycleBodyPanicReachesRunCaller(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	var bomb *Proc
	for i := 0; i < 4; i++ {
		p := e.SpawnNow("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if p.ID == 2 {
				panic("body bomb")
			}
			p.Suspend()
		})
		if i == 2 {
			bomb = p
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "body bomb" {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
		}()
		e.RunAll()
		t.Fatal("RunAll returned")
	}()
	if bomb.State() != ProcDone {
		t.Fatalf("panicked process is %v, want done", bomb.State())
	}
	if e.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d after the panic, want 3", e.LiveProcs())
	}
	dead := bomb.co
	e.Reset(2)
	ran := 0
	for i := 0; i < 4; i++ {
		e.SpawnNow("again", func(p *Proc) { p.Sleep(time.Millisecond); ran++ })
	}
	for _, p := range e.Procs() {
		if p.co == dead {
			t.Fatal("the panic's dead coroutine was handed a new body")
		}
	}
	e.RunAll()
	if ran != 4 {
		t.Fatalf("%d/4 bodies ran after Reset", ran)
	}
	e.Shutdown()
	if g := settledGoroutines(); g > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d", g, base)
	}
}
