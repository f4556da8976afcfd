package sim

import (
	"testing"
	"time"
)

// TestWakeAllAtMatchesIndividualWakes pins the bit-identity contract of
// the group wake: dispatch order, virtual timestamps, and the fired
// event tally must be exactly what a WakeAt loop over the same slice
// produces.
func TestWakeAllAtMatchesIndividualWakes(t *testing.T) {
	type obs struct {
		id int
		at Time
	}
	run := func(group bool) (order []obs, fired uint64) {
		e := NewEngine(7)
		const n = 5
		var waiters []*Proc
		for i := 0; i < n; i++ {
			i := i
			p := e.SpawnNow("w", func(p *Proc) {
				p.Suspend()
				order = append(order, obs{i, p.Now()})
			})
			waiters = append(waiters, p)
		}
		e.SpawnNow("releaser", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if group {
				s := e.GetProcSlice(n)
				s = append(s, waiters...)
				e.WakeAllAt(p.Now()+time.Millisecond, s)
			} else {
				for _, w := range waiters {
					w.WakeAt(p.Now() + time.Millisecond)
				}
			}
		})
		e.RunAll()
		return order, e.EventsFired()
	}
	loopOrder, loopFired := run(false)
	groupOrder, groupFired := run(true)
	if len(groupOrder) != len(loopOrder) {
		t.Fatalf("group woke %d procs, loop woke %d", len(groupOrder), len(loopOrder))
	}
	for i := range loopOrder {
		if groupOrder[i] != loopOrder[i] {
			t.Errorf("dispatch %d: group %+v, loop %+v", i, groupOrder[i], loopOrder[i])
		}
	}
	if groupFired != loopFired {
		t.Errorf("events fired: group %d, loop %d", groupFired, loopFired)
	}
}

// TestWakeAllAtSingleHeapInsertion verifies the point of the batch: one
// group wake adds one pending event no matter how many waiters it
// carries.
func TestWakeAllAtSingleHeapInsertion(t *testing.T) {
	e := NewEngine(1)
	const n = 64
	var waiters []*Proc
	for i := 0; i < n; i++ {
		waiters = append(waiters, e.SpawnNow("w", func(p *Proc) { p.Suspend() }))
	}
	e.RunAll() // park everyone
	before := e.PendingEvents()
	s := e.GetProcSlice(n)
	s = append(s, waiters...)
	e.WakeAllAt(e.Now()+time.Millisecond, s)
	if got := e.PendingEvents() - before; got != 1 {
		t.Fatalf("group wake of %d procs queued %d events, want 1", n, got)
	}
	e.RunAll()
	for _, p := range waiters {
		if p.State() != ProcDone {
			t.Fatalf("waiter not released: %v", p.State())
		}
	}
}

// TestWakeAllAtEmptyAndNil: an empty group is a no-op that still
// returns the slice to the pool.
func TestWakeAllAtEmptyAndNil(t *testing.T) {
	e := NewEngine(1)
	if ev := e.WakeAllAt(0, nil); ev != nil {
		t.Fatal("nil slice should schedule nothing")
	}
	s := e.GetProcSlice(4)
	if ev := e.WakeAllAt(0, s); ev != nil {
		t.Fatal("empty slice should schedule nothing")
	}
	if got := e.GetProcSlice(4); cap(got) != 4 {
		t.Fatalf("empty slice was not pooled: got cap %d", cap(got))
	}
}

// TestProcSlicePoolRoundTrip: arrays round-trip through the pool by
// exact capacity, and pooled arrays hold no stale proc pointers.
func TestProcSlicePoolRoundTrip(t *testing.T) {
	e := NewEngine(1)
	p := e.SpawnNow("p", func(p *Proc) {})
	s := e.GetProcSlice(8)
	s = append(s, p, p, p)
	e.PutProcSlice(s)
	got := e.GetProcSlice(8)
	if cap(got) != 8 || len(got) != 0 {
		t.Fatalf("round trip returned len=%d cap=%d, want 0/8", len(got), cap(got))
	}
	if full := got[:cap(got)]; full[0] != nil || full[1] != nil || full[2] != nil {
		t.Fatal("pooled array still references procs")
	}
	e.RunAll()
}

// TestResetMatchesFreshEngine: a Reset engine must be indistinguishable
// from a newly constructed one — same virtual times, same random
// stream, same event tally — even when the prior run ended mid-flight
// with suspended procs, pending events, and a live group wake.
func TestResetMatchesFreshEngine(t *testing.T) {
	scenario := func(e *Engine) (Time, uint64, float64) {
		var waiters []*Proc
		for i := 0; i < 3; i++ {
			waiters = append(waiters, e.SpawnNow("w", func(p *Proc) {
				p.Suspend()
				p.Sleep(time.Duration(1+e.Rand().Intn(5)) * time.Millisecond)
			}))
		}
		e.SpawnNow("m", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			s := e.GetProcSlice(len(waiters))
			s = append(s, waiters...)
			e.WakeAllAt(p.Now()+time.Millisecond, s)
		})
		e.RunAll()
		return e.Now(), e.EventsFired(), e.Rand().Float64()
	}

	fresh := NewEngine(42)
	ft, fe, fr := scenario(fresh)

	reused := NewEngine(99)
	// Dirty the engine: park procs, leave a pending event and a pending
	// group wake, then abandon the run.
	a := reused.SpawnNow("a", func(p *Proc) { p.Suspend() })
	b := reused.SpawnNow("b", func(p *Proc) { p.Suspend(); p.Sleep(time.Hour) })
	reused.SpawnNow("c", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s := reused.GetProcSlice(1)
		s = append(s, a)
		reused.WakeAllAt(p.Now()+time.Hour, s)
		b.Wake()
	})
	reused.At(time.Minute, func() {})
	reused.Run(time.Second)

	reused.Reset(42)
	rt, re, rr := scenario(reused)
	if rt != ft || re != fe || rr != fr {
		t.Fatalf("reset engine diverged from fresh: time %v vs %v, events %d vs %d, rand %v vs %v",
			rt, ft, re, fe, rr, fr)
	}
}

// TestResetReusesProcStructs: Proc structs (and their channels) come
// back from the pool instead of being reallocated.
func TestResetReusesProcStructs(t *testing.T) {
	e := NewEngine(1)
	p1 := e.SpawnNow("x", func(p *Proc) {})
	e.RunAll()
	e.Reset(1)
	p2 := e.SpawnNow("y", func(p *Proc) {})
	if p1 != p2 {
		t.Fatal("Reset did not recycle the proc struct")
	}
	if p2.Name != "y" || p2.ID != 0 {
		t.Fatalf("recycled proc not reinitialized: name=%q id=%d", p2.Name, p2.ID)
	}
	e.RunAll()
}

// TestEventPoolSteadyAcrossShardedCycles: a reused engine's event pool
// holds a fixed size across Reset → SpawnOn → RunAll cycles, the shape
// of every reused campaign runner. Each process is spawned from the
// setup context onto its own shard, so its start event is stamped by
// shard 0 and fires on the process's shard, and deliveries cross shards
// around a ring; a pool per shard drifts with such traffic, and one
// that fills and drains on different shards grows every cycle. The one
// pool must come back to the same size, and a steady cycle must
// allocate nothing.
func TestEventPoolSteadyAcrossShardedCycles(t *testing.T) {
	const n = 64
	e := NewEngine(1)
	procs := make([]*Proc, n)
	deliver := func(Time, any) {}
	body := func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			p.Post(procs[(p.ID+1)%n], p.Now()+time.Microsecond, deliver, nil)
		}
	}
	cycle := func() {
		e.Reset(1)
		for i := range procs {
			procs[i] = e.SpawnOn(1+i, "rank", 0, body)
		}
		e.RunAll()
	}
	cycle()
	cycle()
	second := len(e.free)
	for c := 3; c <= 100; c++ {
		cycle()
	}
	if got := len(e.free); got != second {
		t.Errorf("pooled events: %d after cycle 2, %d after cycle 100", second, got)
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a steady cycle allocates %v objects, want 0", allocs)
	}
	e.Shutdown()
}
