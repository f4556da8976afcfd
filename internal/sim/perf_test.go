package sim

// Hot-path performance regression suite for the engine: event
// scheduling must reuse pooled Event structs (zero steady-state
// allocation) and the sleep/wake handoff must dispatch processes
// without per-sleep closures. go run ./benchmark reports the same
// costs as sim.event_ns and sim.sleep_ns.

import (
	"testing"
	"time"
)

// TestEventPoolZeroAllocSteadyState pins the free-list behavior: once
// the pool and queue have warmed up, scheduling and firing an event
// allocates nothing.
func TestEventPoolZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	avg := testing.AllocsPerRun(200, func() {
		e.At(e.Now()+time.Microsecond, fn)
		e.RunAll()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %v objects/op in steady state, want 0", avg)
	}
}

// TestSleepZeroAllocSteadyState pins the closure-free dispatch path:
// a process sleeping in steady state costs no allocations (the wake
// event comes from the pool and carries the proc directly).
func TestSleepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	stop := false
	e.SpawnNow("p", func(p *Proc) {
		for !stop {
			p.Sleep(time.Microsecond)
		}
	})
	const sleepsPerSlice = 1000
	slice := sleepsPerSlice * time.Microsecond
	limit := slice
	e.Run(limit) // warm up: pool, queue, goroutine handoff
	avg := testing.AllocsPerRun(20, func() {
		limit += slice
		e.Run(limit)
	})
	stop = true
	e.RunAll()
	e.Shutdown()
	if perSleep := avg / sleepsPerSlice; perSleep >= 0.01 {
		t.Fatalf("sleep allocates %v objects/op in steady state, want 0", perSleep)
	}
}

// TestEventPoolRecyclesCanceled ensures canceled events are returned to
// the pool when popped, not leaked.
func TestEventPoolRecyclesCanceled(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.At(time.Millisecond, func() { t.Error("canceled event fired") }).Cancel()
	}
	e.RunAll()
	if got := len(e.shards[0].free); got != 10 {
		t.Fatalf("free list has %d events after draining canceled queue, want 10", got)
	}
	// Rescheduling must reuse them rather than allocating.
	avg := testing.AllocsPerRun(5, func() {
		e.At(e.Now(), func() {})
		e.RunAll()
	})
	if avg != 0 {
		t.Fatalf("reschedule after cancel allocates %v objects/op, want 0", avg)
	}
}

// TestCancelFromOwnCallbackIsNoop pins the documented safety guarantee
// that recycling happens only after the callback returns.
func TestCancelFromOwnCallbackIsNoop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var ev *Event
	ev = e.At(time.Millisecond, func() {
		fired++
		ev.Cancel() // e.g. sched.finish canceling the kill event that fired
	})
	e.At(2*time.Millisecond, func() { fired++ })
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (self-cancel must not disturb later events)", fired)
	}
}

// TestHeapOrderRandomized cross-checks the hand-inlined sift-up and
// sift-down against the queue's total order on a randomized workload
// with many equal-time events.
func TestHeapOrderRandomized(t *testing.T) {
	e := NewEngine(99)
	const n = 5000
	type fired struct {
		at  Time
		seq int
	}
	var got []fired
	for i := 0; i < n; i++ {
		i := i
		at := time.Duration(e.Rand().Intn(50)) * time.Millisecond
		e.At(at, func() { got = append(got, fired{e.Now(), i}) })
	}
	e.RunAll()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time went backwards at %d: %v after %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("FIFO violated at %d: seq %d fired after %d", i, got[i-1].seq, got[i].seq)
		}
	}
}

// BenchmarkEventScheduling measures the schedule+fire cycle with a
// warm pool and a deep queue (64 concurrent tickers with staggered
// delays exercises both sift directions).
func BenchmarkEventScheduling(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Duration(1+n%37)*time.Microsecond, tick)
		}
	}
	for i := 0; i < 64 && i < b.N; i++ {
		e.After(time.Microsecond, tick)
	}
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkSleepWakeHandoff measures one Suspend/Wake round trip
// between two processes — the pattern behind every blocking MPI call.
func BenchmarkSleepWakeHandoff(b *testing.B) {
	e := NewEngine(1)
	blocked := e.SpawnNow("blocked", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Suspend()
		}
	})
	e.SpawnNow("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			blocked.Wake()
			p.Yield() // let the blocked proc run and re-suspend
		}
	})
	b.ResetTimer()
	e.RunAll()
}
