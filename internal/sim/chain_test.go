package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The tests in this file pin the "whoever parks drives" protocol of the
// serial executor (Engine.drive): the dispatch order a program observes
// must not depend on which goroutine happens to own the loop, on how a
// run is sliced into Run calls, or on where Stop lands.

// chainOp is one step of a generated process script.
type chainOp struct {
	kind   int
	d      time.Duration
	target int
	child  []chainOp
}

const (
	opSleep     = iota // Sleep(d); d is often zero
	opSuspend          // Suspend until somebody wakes us
	opWake             // WakeAt a suspended target (counter stamp)
	opWakePeer         // WakePeerAt a suspended target (canonical stamp)
	opWakeAll          // group-wake every suspended process
	opPost             // payload callback on target's shard; it wakes target
	opPostAll          // payload callback that group-wakes from inside the loop
	opAt               // closure event; it may wake, spawn or Stop
	opCancelNow        // closure scheduled at now+d and canceled at once
	opCancelOld        // cancel the latest still-pending cancellable closure
	opSpawn            // spawn a child mid-run
	opStop             // Stop (stop mode only)
	opKinds
)

type chainEntry struct {
	kind string
	id   int
	at   Time
}

type chainHandle struct {
	ev    *Event
	fired bool
}

// chainRun interprets one generated program on one engine.
type chainRun struct {
	e       *Engine
	stop    bool // honour opStop
	log     []chainEntry
	procs   []*Proc
	pending []*chainHandle
}

func (c *chainRun) note(kind string, id int, at Time) {
	c.log = append(c.log, chainEntry{kind, id, at})
}

// suspended collects the currently suspended processes, in spawn order,
// into an engine-owned slice.
func (c *chainRun) suspended() []*Proc {
	out := c.e.GetProcSlice(len(c.procs))
	for _, q := range c.procs {
		if q.State() == ProcSuspended {
			out = append(out, q)
		}
	}
	return out
}

func (c *chainRun) spawnBody(script []chainOp) func(*Proc) {
	return func(p *Proc) {
		c.note("start", p.ID, p.Now())
		for _, op := range script {
			c.exec(p, op)
		}
	}
}

// onPost is the shared payload callback: arg < 0 group-wakes, otherwise
// it wakes process arg from its own shard.
func (c *chainRun) onPost(t Time, arg any) {
	i := arg.(int)
	c.note("post", i, t)
	if i < 0 {
		c.e.WakeAllAt(t, c.suspended())
		return
	}
	if q := c.procs[i]; q.State() == ProcSuspended {
		q.WakeAtLocal(t)
	}
}

func (c *chainRun) exec(p *Proc, op chainOp) {
	e := c.e
	q := c.procs[op.target%len(c.procs)]
	t := p.Now() + op.d
	switch op.kind {
	case opSleep:
		p.Sleep(op.d)
		c.note("slept", p.ID, p.Now())
	case opSuspend:
		p.Suspend()
		c.note("woken", p.ID, p.Now())
	case opWake:
		if q.State() == ProcSuspended {
			q.WakeAt(t)
		}
	case opWakePeer:
		if q.State() == ProcSuspended {
			p.WakePeerAt(q, t)
		}
	case opWakeAll:
		p.WakeAllAt(t, c.suspended())
	case opPost:
		p.Post(q, t, c.onPost, q.ID)
	case opPostAll:
		p.Post(q, t, c.onPost, -1)
	case opAt:
		act := op.target
		e.At(t, func() {
			c.note("at", act, e.Now())
			switch act % 4 {
			case 0:
				if q.State() == ProcSuspended {
					q.Wake()
				}
			case 1:
				c.procs = append(c.procs, e.SpawnNow("late", c.spawnBody(op.child)))
			case 2:
				if c.stop {
					e.Stop()
				}
			case 3:
				e.WakeAllAt(e.Now(), c.suspended())
			}
		})
	case opCancelNow:
		e.At(t, func() { c.note("BUG: canceled closure fired", p.ID, e.Now()) }).Cancel()
	case opCancelOld:
		if n := len(c.pending); n > 0 {
			if h := c.pending[n-1]; !h.fired {
				h.ev.Cancel()
			}
			c.pending = c.pending[:n-1]
		} else {
			h := &chainHandle{}
			h.ev = e.At(t+time.Microsecond, func() {
				h.fired = true
				c.note("kept", p.ID, e.Now())
			})
			c.pending = append(c.pending, h)
		}
	case opSpawn:
		c.procs = append(c.procs, p.SpawnNow("child", c.spawnBody(op.child)))
	case opStop:
		if c.stop {
			e.Stop()
		}
	}
}

func genChainScript(rng *rand.Rand, depth int) []chainOp {
	ops := make([]chainOp, 2+rng.Intn(12))
	for i := range ops {
		op := chainOp{kind: rng.Intn(opKinds), target: rng.Intn(64)}
		if rng.Intn(3) > 0 {
			op.d = time.Duration(rng.Intn(4)) * time.Microsecond
		}
		switch {
		case i%3 == 0:
			op.kind = opSleep // keep every script moving through time
		case op.kind == opSpawn || op.kind == opAt:
			if depth == 0 {
				op.child = genChainScript(rng, 1)
			}
		}
		ops[i] = op
	}
	return ops
}

// Run modes of the generated-program test.
const (
	chainRunAll = iota
	chainSliced
	chainStopped
)

// runGeneratedProgram builds the program of the given seed on a fresh
// engine, runs it to quiescence in the given mode and returns its
// dispatch log.
func runGeneratedProgram(t *testing.T, seed int64, mode int) []chainEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(seed)
	c := &chainRun{e: e, stop: mode == chainStopped}
	n := 2 + rng.Intn(4)
	scripts := make([][]chainOp, n)
	for i := range scripts {
		scripts[i] = genChainScript(rng, 0)
	}
	for i, script := range scripts {
		start := time.Duration(rng.Intn(3)) * time.Microsecond
		c.procs = append(c.procs, e.SpawnOn(1+i%3, fmt.Sprintf("p%d", i), start, c.spawnBody(script)))
	}
	// Rescuers: closure-context group wakes, so suspended processes keep
	// coming back and the programs stay long.
	for k := 1; k <= 6; k++ {
		e.At(time.Duration(k)*5*time.Microsecond, func() {
			c.note("rescue", 0, e.Now())
			e.WakeAllAt(e.Now(), c.suspended())
		})
	}

	slicer := rand.New(rand.NewSource(seed ^ 0x5eed))
	var until Time
	for guard := 0; e.PendingEvents() > 0; guard++ {
		if guard > 10000 {
			t.Fatalf("seed %d mode %d: program does not come to rest", seed, mode)
		}
		if mode == chainSliced {
			until += Time(1 + slicer.Intn(3000))
			e.Run(until)
		} else {
			e.RunAll()
		}
	}
	if got := e.EventsFired(); got != uint64(len(c.log)) {
		t.Fatalf("seed %d mode %d: EventsFired = %d, logged dispatches = %d", seed, mode, got, len(c.log))
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("seed %d mode %d: %d live processes after Shutdown", seed, mode, e.LiveProcs())
	}
	return c.log
}

// TestChainGeneratedProgramsAgree runs seeded random programs — zero
// sleeps, suspend/wake in every flavour, group wakes that contain
// whoever drives next, payload posts, closures, cancels (a canceled
// closure at the head included), mid-run exits and spawns — and demands
// one dispatch log whether the run is a single RunAll, a sequence of
// random Run(until) slices, or interrupted by Stop and resumed.
func TestChainGeneratedProgramsAgree(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	total := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		want := runGeneratedProgram(t, seed, chainRunAll)
		total += len(want)
		for _, ent := range want {
			if ent.kind[0] == 'B' {
				t.Fatalf("seed %d: %v", seed, ent)
			}
		}
		for _, mode := range []int{chainSliced, chainStopped} {
			if got := runGeneratedProgram(t, seed, mode); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: mode %d log differs from RunAll\n got %v\nwant %v", seed, mode, got, want)
			}
		}
	}
	if total < 20*seeds {
		t.Fatalf("generated programs are too short to mean anything: %d dispatches over %d seeds", total, seeds)
	}
}

// TestChainLoneSleeperBlocksRunOnce: a process whose own wake is always
// the next event resumes inline, so Run's goroutine blocks exactly once
// however long the process sleeps on.
func TestChainLoneSleeperBlocksRunOnce(t *testing.T) {
	e := NewEngine(1)
	const n = 100000
	e.SpawnNow("lone", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.RunAll()
	if e.rests != 1 {
		t.Fatalf("Run's goroutine blocked %d times, want 1", e.rests)
	}
	if got := e.EventsFired(); got != n+1 {
		t.Fatalf("EventsFired = %d, want %d", got, n+1)
	}
}

// TestChainCanceledClosureDoesNotBounce: a canceled closure at the head
// is recycled by whoever owns the loop; only a live one needs Run's
// goroutine.
func TestChainCanceledClosureDoesNotBounce(t *testing.T) {
	e := NewEngine(1)
	live := 0
	e.SpawnNow("p", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			e.After(0, func() { t.Error("canceled closure fired") }).Cancel()
			p.Sleep(time.Microsecond)
		}
		e.After(0, func() { live++ })
		p.Sleep(time.Microsecond)
	})
	e.RunAll()
	// Once for the process, once more after the live closure ran.
	if e.rests != 2 || live != 1 {
		t.Fatalf("rests = %d (want 2), live closures fired = %d (want 1)", e.rests, live)
	}
}

// TestChainClosuresRunOnRunsGoroutine: closure events execute on the
// goroutine that called Run even when a process owned the loop just
// before, so a panicking closure unwinds Run's caller — and leaves an
// engine that can still be shut down and, once Reset has cleared the
// loop's cursor and stepping shard, reused.
func TestChainClosuresRunOnRunsGoroutine(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.SpawnNow("p", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	e.At(50*time.Microsecond, func() { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the closure's panic", r)
			}
		}()
		e.RunAll()
		t.Fatal("RunAll returned")
	}()
	if e.stepping == nil {
		t.Fatal("the panicking closure's shard should still be stepping")
	}
	e.group, e.groupAt = &Event{}, 1 // only a panic mid-group leaves a cursor; plant one
	e.Reset(2)
	if e.group != nil || e.groupAt != 0 || e.stepping != nil {
		t.Fatal("Reset left loop state behind")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live processes after Reset", e.LiveProcs())
	}
	ran := false
	e.SpawnNow("again", func(p *Proc) { p.Sleep(time.Millisecond); ran = true })
	e.RunAll()
	if !ran {
		t.Fatal("engine unusable after a panicking closure")
	}
}

// TestChainRunWhileRunningPanics: the loop has one owner.
func TestChainRunWhileRunningPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Microsecond, func() { e.RunAll() })
	defer func() {
		if recover() == nil {
			t.Fatal("nested Run did not panic")
		}
	}()
	e.RunAll()
}

// TestChainExitDuringShutdownDoesNotDrive: a process that is ordered to
// exit acknowledges and stops; the events still queued stay queued.
func TestChainExitDuringShutdownDoesNotDrive(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 0; i < 4; i++ {
		e.SpawnNow("p", func(p *Proc) {
			defer p.Sleep(0) // a body defer that parks again mid-Shutdown
			p.Sleep(time.Hour)
		})
	}
	e.After(time.Minute, func() { fired++ })
	e.Run(time.Second)
	e.Shutdown()
	if fired != 0 || e.LiveProcs() != 0 {
		t.Fatalf("fired = %d, live = %d after Shutdown", fired, e.LiveProcs())
	}
}

// TestSwitchPingPongOneSwitchPerDispatch: a process that parks switches
// straight to the next one, so a two-process ping-pong of n round trips
// costs 2n coroswitches plus the run's entry and exit — not the 4n of
// bouncing every dispatch through Run's goroutine.
func TestSwitchPingPongOneSwitchPerDispatch(t *testing.T) {
	e := NewEngine(1)
	const n = 1000
	var a, b *Proc
	b = e.SpawnNow("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Suspend()
			a.Wake()
		}
	})
	a = e.SpawnNow("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			b.Wake()
			p.Suspend()
		}
	})
	e.RunAll()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
	if got := e.coros.switches; got < 2*n || got > 2*n+4 {
		t.Fatalf("%d round trips took %d coroswitches, want 2n plus a constant (%d..%d)", n, got, 2*n, 2*n+4)
	}
	if e.rests != 1 || e.coros.outerSwitches != e.rests {
		t.Fatalf("rests = %d, switches to Run's goroutine = %d, want 1 and 1", e.rests, e.coros.outerSwitches)
	}
}

// TestSwitchToRunnerOnlyAtRest: control goes back to Run's goroutine
// exactly when the loop comes to rest — once per live closure that
// falls due while processes hold the loop, and once at the end — and
// at no other dispatch.
func TestSwitchToRunnerOnlyAtRest(t *testing.T) {
	e := NewEngine(1)
	const procs, ticks = 6, 50
	for i := 0; i < procs; i++ {
		d := time.Duration(i+1) * time.Microsecond
		e.SpawnNow("p", func(p *Proc) {
			for j := 0; j < 200; j++ {
				p.Sleep(d)
			}
		})
	}
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < ticks {
			e.After(7*time.Microsecond+time.Nanosecond, tick)
		}
	}
	e.After(time.Nanosecond, tick)
	e.RunAll()
	if fired != ticks {
		t.Fatalf("%d/%d closures fired", fired, ticks)
	}
	if e.rests < ticks {
		t.Fatalf("rests = %d, want at least one per closure (%d)", e.rests, ticks)
	}
	if e.coros.outerSwitches != e.rests {
		t.Fatalf("%d switches to Run's goroutine, %d rests: they must be equal", e.coros.outerSwitches, e.rests)
	}
	if d := e.EventsFired() - uint64(ticks); e.coros.switches > d+e.rests {
		t.Fatalf("%d coroswitches for %d process dispatches and %d rests", e.coros.switches, d, e.rests)
	}
}
