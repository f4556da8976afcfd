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

// TestLifecycleBodyGoexitReachesRunCaller: a body that calls
// runtime.Goexit (what t.FailNow does) ends the goroutine that called
// Run, not some other participant, and the engine's remaining
// goroutines — the other processes, parked — are released by a later
// Shutdown.
func TestLifecycleBodyGoexitReachesRunCaller(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.SpawnNow("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if p.ID == 2 {
				runtime.Goexit()
			}
			p.Suspend()
		})
	}
	type outcome struct {
		returned bool
		panicked any
	}
	done := make(chan outcome)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			done <- o
		}()
		e.RunAll()
		o.returned = true
	}()
	if o := <-done; o.returned || o.panicked != nil {
		t.Fatalf("Run's caller returned=%v panicked=%v, want it Goexited", o.returned, o.panicked)
	}
	if e.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d after the Goexit, want 3", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", e.LiveProcs())
	}
	if g := settledGoroutines(); g > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d", g, base)
	}
}

// TestLifecycleForwardedFaultReachesRunCaller: process a parks by
// switching straight to b, so a waits in b's switch point; b then
// panics or calls Goexit. b's end releases a, which is not the one to
// run next: the fault reaches Run's caller, a's body never observes a
// resume, and Unwind later runs a's defers exactly once.
func TestLifecycleForwardedFaultReachesRunCaller(t *testing.T) {
	for _, kind := range []string{"panic", "goexit"} {
		t.Run(kind, func(t *testing.T) {
			base := settledGoroutines()
			e := NewEngine(1)
			resumed, defers := false, 0
			a := e.SpawnNow("a", func(p *Proc) {
				defer func() { defers++ }()
				p.Sleep(time.Microsecond)
				resumed = true
			})
			e.SpawnNow("b", func(p *Proc) {
				if a.co.at != p.co {
					t.Error("a does not wait in b's switch point: the test lost its premise")
				}
				if kind == "panic" {
					panic("b's bomb")
				}
				runtime.Goexit()
			})
			done := make(chan any)
			go func() {
				goexited := true
				defer func() {
					r := recover()
					if goexited && r == nil {
						r = "goexit"
					}
					done <- r
				}()
				e.RunAll()
				goexited = false
			}()
			want := any("goexit")
			if kind == "panic" {
				want = "b's bomb"
			}
			if r := <-done; r != want {
				t.Fatalf("Run's caller ended with %v, want %v", r, want)
			}
			if resumed || defers != 0 {
				t.Fatalf("a resumed=%v, defers run %d times before Unwind", resumed, defers)
			}
			e.Unwind()
			if resumed || defers != 1 || a.State() != ProcDone {
				t.Fatalf("after Unwind: a resumed=%v, defers run %d times, state %v; want false, 1, done", resumed, defers, a.State())
			}
			e.Shutdown()
			if defers != 1 {
				t.Fatalf("a's defers ran %d times after Shutdown", defers)
			}
			if g := settledGoroutines(); g > base {
				t.Fatalf("%d goroutines after Shutdown, baseline %d", g, base)
			}
		})
	}
}

// rotateRing runs cycles of Reset → a token ring of n processes plus a
// hanging half → Run, each Run on a goroutine of its own, so the
// processes' switch points have rotated among the goroutines (and the
// one outside) by the end. It leaves the last cycle's hung processes
// parked.
func rotateRing(t *testing.T, e *Engine, cycles, n int) {
	for c := 0; c < cycles; c++ {
		e.Reset(int64(c + 1))
		ring := make([]*Proc, n)
		for i := range ring {
			i := i
			ring[i] = e.SpawnNow("ring", func(p *Proc) {
				for r := 0; r < 20; r++ {
					if i > 0 || r > 0 {
						p.Suspend()
					} else {
						p.Sleep(time.Microsecond) // until the others wait
					}
					if next := ring[(i+1)%n]; next.State() == ProcSuspended {
						next.Wake()
					}
				}
			})
		}
		hangHalf(e, n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.Run(time.Minute)
		}()
		<-done
	}
	rotated := false
	for _, c := range e.coros.all {
		rotated = rotated || c.at != c
	}
	if !rotated {
		t.Fatal("every goroutine waits in its own switch point: nothing rotated")
	}
}

// TestLifecycleReleaseFromAnotherGoroutine: after switch points have
// rotated over several Reset cycles, Shutdown called from a goroutine
// that never ran the engine, and the cleanup of a dropped (unwound)
// engine, each bring the goroutine count back to its baseline.
func TestLifecycleReleaseFromAnotherGoroutine(t *testing.T) {
	const n = 32
	t.Run("shutdown", func(t *testing.T) {
		base := settledGoroutines()
		e := NewEngine(1)
		rotateRing(t, e, 4, n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.Shutdown()
		}()
		<-done
		if e.LiveProcs() != 0 {
			t.Fatalf("LiveProcs = %d after Shutdown", e.LiveProcs())
		}
		if g := settledGoroutines(); g > base {
			t.Fatalf("%d goroutines after Shutdown, baseline %d", g, base)
		}
	})
	t.Run("cleanup", func(t *testing.T) {
		base := settledGoroutines()
		func() {
			e := NewEngine(1)
			rotateRing(t, e, 4, n)
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.Unwind()
			}()
			<-done
			if g := runtime.NumGoroutine(); g < base+2*n {
				t.Fatalf("%d goroutines with %d pooled coroutines, baseline %d", g, 2*n, base)
			}
		}()
		if g := settledGoroutines(); g > base {
			t.Fatalf("dropped engine leaked coroutines: %d goroutines, baseline %d", g, base)
		}
	})
}
