// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-based simulated processes and a virtual clock.
//
// The engine is the substrate on which the simulated MPI runtime
// (package mpi), the workload skeletons (package workload), and the
// ParaStack monitor (package core) execute. The event queue is sharded:
// shard 0 carries system activity (monitors, detectors, test callbacks)
// and the MPI world homes each group of ranks on its own shard, so each
// queue holds a handful of pending events no matter how large the world
// is. A deterministic min-merge over the shard heads (Engine.heads)
// yields the total event order — (time, source shard, source sequence).
// Every golden in the repository was recorded under that order. The
// shards, the per-shard stamps and the canonical wake stamps stay
// because they define it, not because anything executes shards apart.
//
// There is one executor, and exactly one simulated process (or event
// callback) runs at a time, so simulation state needs no locking and
// every run is reproducible from the engine's random seed. Each process
// body runs on a runtime coroutine (iter.Pull), and coroutine switches
// order every access; none enters the Go scheduler. Whoever parks
// drives: every process that sleeps, suspends or exits continues the
// global event loop (Engine.drive) itself — it runs payload callbacks
// (the MPI deliveries) inline, resumes without any switch when the next
// dispatch is its own wake, and otherwise records the next process
// (handoff) and switches straight to it, one coroswitch per dispatch:
// each coroutine's iter.Pull is also a switch point that any goroutine
// may release (see coro). Run's goroutine takes part like one more
// process, and control comes back to it only when the loop comes to
// rest — the run is over or a closure event (At/After) is due — and it
// drives on: closures always execute on the goroutine that called Run,
// so a panicking closure unwinds Run's caller and never a process. A
// panicking process body ends its coroutine and reaches Run's caller
// too, as does a body's runtime.Goexit.
//
// Coroutines are pooled with their processes across Reset; Unwind ends
// a run's bodies and keeps them, Shutdown releases them. An engine that
// is dropped without Shutdown stops its idle coroutines when it is
// garbage-collected.
//
// Virtual time is represented as time.Duration offsets from the start
// of the simulation. Sleeping, blocking on a condition, and waking
// other processes are the only ways time advances; wall-clock time
// never leaks into the simulation.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parastack/internal/obs"
)

// Counter, gauge, and event names the engine reports through its
// recorder (see Engine.SetRecorder).
const (
	CtrSpawns    = "engine.spawns"     // processes spawned
	CtrProcExits = "engine.proc_exits" // processes terminated
	CtrSleeps    = "engine.sleeps"     // Proc.Sleep calls
	CtrEvents    = "engine.events"     // events fired (synced per Run)

	// Deprecated: the windowed executor these counted is gone and they
	// are no longer emitted. They stay only because the benchmark still
	// reads them; they go when it stops.
	CtrWindows = "engine.windows"
	// Deprecated: no longer emitted; see CtrWindows.
	CtrWindowShards = "engine.window_shards"
	// Deprecated: no longer emitted; see CtrWindows.
	CtrHorizonStalls = "engine.horizon_stalls"

	GaugeQueueDepthMax = "engine.queue_depth_max"

	EvProcSpawn  = "proc_spawn"  // fields: proc, name
	EvProcSleep  = "proc_sleep"  // fields: proc, dur_us (TraceProcs only)
	EvProcStop   = "proc_stop"   // fields: proc, name
	EvQueueDepth = "queue_depth" // fields: depth (on ~2x growth)
)

// Time is an absolute instant on the virtual clock, measured as an
// offset from the beginning of the simulation.
type Time = time.Duration

// Event is a scheduled callback. Events with equal times fire in
// scheduling order within their originating shard (FIFO), with the
// originating shard's id breaking cross-shard ties, which keeps runs
// deterministic.
//
// Fired events are recycled through per-shard free lists, so an
// *Event handle is only valid until its event fires: cancel pending
// events, never handles retained past their firing time (canceling
// from within the event's own callback is still safe).
type Event struct {
	when Time
	src  int32  // originating shard (tie-break)
	seq  uint64 // originating shard's stamp (counter, or canonical wake)
	fn   func()
	proc *Proc // when non-nil, firing dispatches this process directly

	// pfn+parg, when pfn is non-nil, is a payload callback: a shared
	// function pointer plus a boxed argument, so cross-shard posts
	// (message deliveries, request completions) need no per-event
	// closure allocation. The callback receives the event's time.
	pfn  func(Time, any)
	parg any

	// procs, when non-nil, is a group wake: firing dispatches every
	// process in order with a single heap pop. The slice is owned by the
	// engine from WakeAllAt until the event fires (or is drained by
	// Reset), at which point it returns to the proc-slice pool.
	procs []*Proc

	canceled bool
	index    int // heap index, -1 when popped
}

// Cancel prevents a pending event from firing. Canceling an event that
// is currently firing (from within its own callback) is a no-op; see
// the handle-validity note on Event for already-fired events.
func (ev *Event) Cancel() { ev.canceled = true }

// When returns the virtual time at which the event is scheduled.
func (ev *Event) When() Time { return ev.when }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now    Time
	shards []*shard
	heads  []headEntry // min-merge over non-empty, non-active shards

	rng  *rand.Rand
	seed int64

	stopped   bool
	running   bool
	unwinding bool // Unwind has begun: parks unwind instead of driving

	// Global-loop state (see drive). until bounds the current Run;
	// stepping is the shard whose popped event is executing (still in
	// heads, under a stale key); group/groupAt is the cursor through a
	// popped group wake; next is the process control passes to next
	// (see handoff).
	until    Time
	stepping *shard
	group    *Event
	groupAt  int
	next     *Proc
	rests    uint64 // times a process left the loop at rest to Run's goroutine (pinned by tests)

	// ctx is the shard whose event (or setup code) is currently
	// executing; engine-level scheduling APIs (At, After, Spawn, WakeAt)
	// stamp events with it.
	ctx *shard

	procs     []*Proc
	liveProcs int

	// Reuse pools. freeProcs recycles Proc structs (and their
	// coroutines) across Reset cycles; coros is every live coroutine,
	// for Shutdown and the engine's cleanup; procSlices recycles
	// group-wake waiter backing arrays, keyed on exact capacity so a
	// communicator's waiter list round-trips through the pool without
	// reallocating.
	freeProcs  []*Proc
	coros      *coroPool
	procSlices map[int][][]*Proc

	// Observability (see SetRecorder). rec is never nil.
	rec          obs.Recorder
	traceProcs   bool
	depthEvented int
	// synced copies of the tallies already folded into the recorder.
	eventsSynced uint64
	sleepsSynced uint64
	spawnsSynced uint64
	exitsSynced  uint64
}

// NewEngine returns an engine whose random stream is seeded with seed.
// Two engines built with the same seed and driven by the same program
// produce identical event sequences.
func NewEngine(seed int64) *Engine {
	e := &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		rec:   obs.Disabled,
		coros: newCoroPool(),
	}
	e.ctx = e.shardFor(0)
	runtime.AddCleanup(e, (*coroPool).stopAll, e.coros)
	return e
}

// shardFor returns shard id, growing the shard table as needed. Shards
// persist across Reset so their free lists stay warm for the next run.
func (e *Engine) shardFor(id int32) *shard {
	for int(id) >= len(e.shards) {
		e.shards = append(e.shards, &shard{id: int32(len(e.shards)), eng: e, pos: -1})
	}
	return e.shards[id]
}

// Shards reports how many shards exist (system shard included).
func (e *Engine) Shards() int { return len(e.shards) }

// SetRecorder attaches an observability recorder. The engine counts
// spawns, process exits, sleeps, and fired events, tracks the maximum
// event-queue depth as a gauge, and — when the recorder consumes
// events — emits proc_spawn/proc_stop events plus queue_depth events
// each time the maximum depth roughly doubles. Per-sleep proc_sleep
// events are additionally gated behind TraceProcs, since they dominate
// trace volume. A nil recorder detaches (restores obs.Disabled).
//
// Recording is pure observation: it never touches the engine's random
// stream or event ordering, so attaching a recorder cannot perturb
// virtual-time results. Counters and gauges are folded in when a Run
// returns, so the event loop carries no per-event recorder work.
func (e *Engine) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Disabled
	}
	e.rec = r
}

// Recorder returns the attached recorder (obs.Disabled by default).
func (e *Engine) Recorder() obs.Recorder { return e.rec }

// TraceProcs toggles per-sleep proc_sleep trace events (off by
// default; spawn/stop events only need SetRecorder).
func (e *Engine) TraceProcs(on bool) { e.traceProcs = on }

// Now returns the current virtual time: the time of the last dispatched
// event. Process bodies may equally use Proc.Now, which is the time of
// the event that last dispatched that process.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source, for setup
// code, system-shard (shard 0) events, and tests. Rank-context code
// draws from per-rank streams instead (see Rng): a shared stream would
// make every rank's draws depend on how all ranks interleave, so any
// change to the dispatch of one rank would reshuffle the randomness of
// the others.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed of the engine's current random stream; worlds
// derive per-rank and keyed streams from it.
func (e *Engine) Seed() int64 { return e.seed }

// EventsFired reports how many events have executed so far, summed
// over shards. Each process a group wake dispatches counts as one
// event, exactly as if it had been woken on its own.
func (e *Engine) EventsFired() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.fired
	}
	return n
}

// Procs returns all processes ever spawned on the engine, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// LiveProcs reports the number of spawned processes that have not yet
// terminated.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// scheduleLocal allocates an event on shard s with s's own counter
// stamp and pushes it. The caller must be executing on s (its
// dispatched process, or setup code with ctx == s).
func (e *Engine) scheduleLocal(s *shard, t Time) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before shard %d time %v", t, s.id, s.now))
	}
	ev := s.alloc()
	ev.when = t
	ev.src = s.id
	ev.seq = s.seq
	s.seq++
	e.push(s, ev)
	return ev
}

// schedulePost allocates an event stamped by src's shard counter and
// pushes it onto dst's shard: the deterministic cross-shard post behind
// message deliveries.
func (e *Engine) schedulePost(src, dst *shard, t Time) *Event {
	if src == dst {
		return e.scheduleLocal(src, t)
	}
	ev := src.alloc()
	ev.when = t
	ev.src = src.id
	ev.seq = src.seq
	src.seq++
	e.pushRemote(dst, ev)
	return ev
}

// scheduleWake allocates a canonical wake event for p: stamped with
// p's home shard and p's shard-local id rather than the waker's
// counter. Which process performs a cross-shard wake (say, the last
// rank to reach a collective) is an accident of dispatch; the canonical
// stamp makes the wake's queue position a function of the woken process
// alone. The event comes from p's own shard's pool — the one its firing
// recycles it into, so neither pool drains into the other.
func (e *Engine) scheduleWake(src *shard, p *Proc, t Time) *Event {
	s := p.shard
	ev := s.alloc()
	ev.when = t
	ev.src = s.id
	ev.seq = wakeSeqBit | p.localID
	ev.proc = p
	if s != src {
		e.pushRemote(s, ev)
		return ev
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before shard %d time %v", t, s.id, s.now))
	}
	e.push(s, ev)
	return ev
}

// pushRemote inserts an event stamped elsewhere into target's queue.
func (e *Engine) pushRemote(target *shard, ev *Event) {
	if ev.when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.when, e.now))
	}
	e.push(target, ev)
}

// push inserts a stamped event into s's queue, keeps the merge heap in
// step, and records depth bookkeeping (a structured queue_depth event
// each time the maximum roughly doubles).
func (e *Engine) push(s *shard, ev *Event) {
	s.queue.push(ev)
	e.onHeadChanged(s, ev)
	if n := len(s.queue); n > s.maxDepth {
		s.maxDepth = n
		if e.rec.Enabled() && n >= 2*e.depthEvented {
			e.depthEvented = n
			e.rec.Event(e.now, EvQueueDepth, obs.Int("depth", int64(n)))
		}
	}
}

// GetProcSlice returns an empty process slice with at least the given
// capacity, reusing a pooled backing array when one of that exact
// capacity is available. Callers either hand the slice back through
// PutProcSlice or transfer ownership to the engine via WakeAllAt.
func (e *Engine) GetProcSlice(capacity int) []*Proc {
	if capacity < 1 {
		capacity = 1
	}
	if l := e.procSlices[capacity]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		e.procSlices[capacity] = l[:len(l)-1]
		return s
	}
	return make([]*Proc, 0, capacity)
}

// PutProcSlice returns a slice obtained from GetProcSlice (or grown
// from one) to the pool. The slice must not be used afterwards.
func (e *Engine) PutProcSlice(s []*Proc) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil // drop proc references so pooled arrays don't pin them
	}
	if e.procSlices == nil {
		e.procSlices = make(map[int][][]*Proc)
	}
	e.procSlices[cap(s)] = append(e.procSlices[cap(s)], s[:0])
}

// WakeAllAt schedules every process in procs to resume at time t as a
// single queued group event — one heap insertion instead of one per
// waiter, which keeps large collectives O(log queue) instead of
// O(N log queue). Processes are dispatched in slice order, and each
// dispatch counts as one fired event. Every process must be suspended;
// ownership of the slice transfers to the engine (the group event
// returns it to the proc-slice pool after firing). An empty slice
// schedules nothing and returns nil. The event is stamped by the
// current context shard; processes use Proc.WakeAllAt, which stamps it
// by their own.
func (e *Engine) WakeAllAt(t Time, procs []*Proc) *Event {
	return e.wakeAll(e.ctx, t, procs)
}

func (e *Engine) wakeAll(src *shard, t Time, procs []*Proc) *Event {
	if len(procs) == 0 {
		if procs != nil {
			e.PutProcSlice(procs)
		}
		return nil
	}
	ev := e.scheduleLocal(src, t)
	ev.procs = procs
	for _, p := range procs {
		if p.state != ProcSuspended {
			panic(fmt.Sprintf("sim: WakeAllAt(%s) in state %s", p.Name, p.state))
		}
		// Mark sleeping-with-event so a concurrent WakeAt panics, exactly
		// as an individual wake would.
		p.state = ProcSleeping
		p.wake = ev
	}
	return ev
}

// At schedules fn to run at absolute virtual time t on the current
// context shard (shard 0 for setup/system code).
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.scheduleCtx(t)
	ev.fn = fn
	return ev
}

// scheduleCtx schedules on the current context shard with the
// engine-clock causality check (the pre-sharding contract).
func (e *Engine) scheduleCtx(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.ctx
	ev := s.alloc()
	ev.when = t
	ev.src = s.id
	ev.seq = s.seq
	s.seq++
	e.push(s, ev)
	return ev
}

// MaxQueueDepth reports the largest per-shard event-queue length seen
// so far (the deepest any single shard's queue has been).
func (e *Engine) MaxQueueDepth() int {
	max := 0
	for _, s := range e.shards {
		if s.maxDepth > max {
			max = s.maxDepth
		}
	}
	return max
}

// syncObs folds engine-side tallies into the recorder; called when a
// Run slice finishes (and after Shutdown) so hot loops stay free of
// per-event recorder work.
func (e *Engine) syncObs() {
	var fired, sleeps, spawns, exits uint64
	for _, s := range e.shards {
		fired += s.fired
		sleeps += s.sleeps
		spawns += s.spawns
		exits += s.exits
	}
	if d := fired - e.eventsSynced; d > 0 {
		e.eventsSynced = fired
		e.rec.Count(CtrEvents, int64(d))
	}
	if d := sleeps - e.sleepsSynced; d > 0 {
		e.sleepsSynced = sleeps
		e.rec.Count(CtrSleeps, int64(d))
	}
	if d := spawns - e.spawnsSynced; d > 0 {
		e.spawnsSynced = spawns
		e.rec.Count(CtrSpawns, int64(d))
	}
	if d := exits - e.exitsSynced; d > 0 {
		e.exitsSynced = exits
		e.rec.Count(CtrProcExits, int64(d))
	}
	e.rec.Gauge(GaugeQueueDepthMax, float64(e.MaxQueueDepth()))
}

// After schedules fn to run d from now (see At for context rules).
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop halts the run loop after the currently executing event
// completes. Pending events remain queued; a subsequent Run call
// resumes from them.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last Run.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events in virtual-time order until one of: the queue is
// empty, Stop is called, or the clock passes until (a zero until means
// no limit). It returns the virtual time at which it stopped.
//
// An empty queue with live processes means every process is blocked
// with nobody scheduled to wake it — the simulated equivalent of a
// global hang with no monitor attached. Run simply returns in that
// case; callers can inspect LiveProcs to distinguish it from normal
// completion.
//
// Run's goroutine drives until the loop hands a process control and
// switches to it; from then on every process that parks switches
// straight to the next, and control comes back to Run's goroutine only
// when the loop comes to rest — once per run for a program of processes
// and payload callbacks alone, once per closure event otherwise. Then
// it drives again. The runtime requires coroutine switches to keep the
// OS-thread locking they were created under, so Run, Unwind and
// Shutdown must not be called from a goroutine locked with
// runtime.LockOSThread unless the processes were spawned on that same
// locked thread.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run while running")
	}
	e.stopped = false
	e.running = true
	e.until = until
	defer func() {
		e.running = false
		e.ctx = e.shards[0]
		e.syncObs()
	}()
	for e.drive(nil) == loopHanded {
		e.coros.resume(e.successor())
	}
	return e.now
}

// successor is the participant a process that gave up control hands it
// to: the process the loop recorded, or Run's goroutine when the loop
// came to rest — or, during an unwind, Unwind's.
func (e *Engine) successor() *coro {
	if q := e.next; q != nil {
		e.next = nil
		return q.co
	}
	if !e.unwinding {
		e.rests++
	}
	return &e.coros.outer
}

// drive continues the global event loop on the calling goroutine:
// Run's (self == nil) or the coroutine of the process which just parked
// or exited (self). Whoever parks drives — it pops the earliest event
// in the system and runs payload callbacks inline, hands control to the
// next dispatched process (see handoff: no switch when that is self, a
// switch straight to it otherwise), and where the loop needs Run's
// goroutine — the run is over (queue empty, Stop, until) or a closure
// event is due — it returns with nothing recorded, and a driving
// process switches to Run's goroutine.
//
// Closure events (At/After) run on Run's goroutine only, so a
// panicking closure unwinds Run's caller rather than a process. The
// popped shard stays in the merge heap under its stale key (active)
// while its event executes and is re-keyed once, by whoever drives
// next. A group wake is a cursor on the engine, so every waiter of a
// popped group is dispatched, in slice order, before anything else is
// considered — Stop included.
func (e *Engine) drive(self *Proc) loopAction {
	for {
		if g := e.group; g != nil {
			s, q, t := e.ctx, g.procs[e.groupAt], g.when
			e.groupAt++
			s.fired++
			if e.groupAt == len(g.procs) {
				e.group = nil
				s.recycle(g)
			}
			return e.handoff(q, self, t)
		}
		if s := e.stepping; s != nil {
			e.stepping = nil
			s.active = false
			if len(s.queue) == 0 {
				e.headsRemove(s)
			} else {
				e.headsFix(s)
			}
		}
		if e.stopped || len(e.heads) == 0 {
			return rest(self)
		}
		s := e.heads[0].s
		ev := s.queue[0]
		if e.until > 0 && ev.when > e.until {
			e.now = e.until
			return rest(self)
		}
		if self != nil && ev.fn != nil && !ev.canceled {
			return rest(self) // a canceled closure is anyone's to skip
		}
		s.queue.popMin()
		s.active = true
		e.stepping = s
		if ev.canceled {
			s.recycle(ev)
			continue
		}
		if ev.when > e.now {
			e.now = ev.when
		}
		s.now = ev.when
		e.ctx = s
		switch {
		case ev.proc != nil:
			// Recycled before the handoff: afterwards the event, like
			// everything else, belongs to the dispatched process.
			q, t := ev.proc, ev.when
			s.fired++
			s.recycle(ev)
			return e.handoff(q, self, t)
		case ev.procs != nil:
			// One heap pop releases the whole waiter list; each dispatch
			// counts as a fired event, like the per-waiter wakes it stands
			// for.
			e.group, e.groupAt = ev, 0
		case ev.pfn != nil:
			s.fired++
			ev.pfn(ev.when, ev.parg)
			s.recycle(ev)
		default:
			s.fired++
			ev.fn()
			// Callback events are recycled only after the callback returns,
			// so a Cancel from within it stays a safe no-op.
			s.recycle(ev)
		}
	}
}

// rest brings the global loop to rest on Run's goroutine: a driving
// process records no successor, so it switches back to Run's.
func rest(self *Proc) loopAction {
	if self == nil {
		return loopDone
	}
	return loopHanded
}

// RunAll runs with no time limit.
func (e *Engine) RunAll() Time { return e.Run(0) }

// PendingEvents reports the number of queued (possibly canceled)
// events across all shards.
func (e *Engine) PendingEvents() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.queue)
	}
	return n
}

// Unwind terminates every live simulated process: each body unwinds
// from where it parked (its defers run) and its coroutine returns to
// the pool. Campaigns that run thousands of simulations — many ending
// in hangs whose processes would otherwise stay parked forever — call
// this after each run. The engine must not be running; after Unwind it
// must not be reused until Reset.
func (e *Engine) Unwind() {
	if e.running {
		panic("sim: Unwind while running")
	}
	e.unwinding = true
	e.next = nil
	for _, p := range e.procs {
		for p.state != ProcDone {
			// Resume the body: park (or, for a never-started process, the
			// coroutine itself) observes the unwinding flag and unwinds via
			// a procExit panic, which exit recovers before the coroutine
			// switches back here. Nothing runs while the engine does not,
			// so even a process dispatched but never resumed is parked.
			e.coros.resume(p.co)
		}
	}
	e.syncObs()
}

// Shutdown is Unwind followed by the release of every coroutine the
// engine has pooled, so no goroutine of the engine's is left. The
// engine must not be running; after Shutdown it must not be reused
// until Reset, which then builds fresh coroutines as processes spawn.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while running")
	}
	e.Unwind()
	e.coros.stopAll()
}

// Reset returns the engine to its just-constructed state with a fresh
// random stream seeded with seed, while retaining every warm structure
// (shards, event free lists, processes and their coroutines, group-wake
// slices). A reset engine is indistinguishable from NewEngine(seed) to
// the simulation — virtual time, event sequence numbers, the random
// stream, and all counters restart from zero — which is what lets
// campaigns reuse one engine across seeds instead of reallocating per
// run. Live processes are unwound first; the attached recorder is kept
// (pass a new one via SetRecorder for the next run).
func (e *Engine) Reset(seed int64) {
	if e.running {
		panic("sim: Reset while running")
	}
	e.Unwind()
	for _, s := range e.shards {
		s.reset()
	}
	e.heads = e.heads[:0]
	e.stepping, e.group, e.groupAt = nil, nil, 0
	for i, p := range e.procs {
		// All processes are Done after Unwind and their coroutines idle,
		// so the structs (and coroutines) are reusable.
		p.eng = nil
		p.shard = nil
		p.wake = nil
		p.penalty = 0
		e.freeProcs = append(e.freeProcs, p)
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.liveProcs = 0
	e.now = 0
	e.stopped = false
	e.unwinding = false
	e.eventsSynced = 0
	e.sleepsSynced = 0
	e.spawnsSynced = 0
	e.exitsSynced = 0
	e.depthEvented = 0
	e.ctx = e.shards[0]
	e.seed = seed
	e.rng.Seed(seed)
}

// procExit is the sentinel panic used to unwind a simulated process's
// body during Unwind. Process bodies' defers run normally.
type procExit struct{}
