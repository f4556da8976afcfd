// Package sim provides a deterministic discrete-event simulation engine
// with goroutine-based simulated processes and a virtual clock.
//
// The engine is the substrate on which the simulated MPI runtime
// (package mpi), the workload skeletons (package workload), and the
// ParaStack monitor (package core) execute. The event queue is sharded:
// shard 0 carries system activity (monitors, detectors, test callbacks)
// and the MPI world gives every rank its own shard, so each queue holds
// one process group's handful of pending events no matter how large the
// world is. A deterministic min-merge over the shard heads yields a
// total event order — (time, source shard, source sequence) — that is
// identical whether the engine runs serially or in windowed
// (conservative parallel-DES) mode; see Engine.SetParallel.
//
// In serial mode exactly one simulated process (or event callback) runs
// at a time, so shared simulation state needs no further locking and
// every run is reproducible from the engine's random seed. There is no
// scheduler goroutine: whoever parks drives. Run starts the global
// event loop (Engine.drive) on its own goroutine, and every process
// that sleeps, suspends or exits continues that loop itself — it runs
// payload callbacks (the MPI deliveries) inline, resumes without any
// goroutine switch when the next dispatch is its own wake, and
// otherwise readies the next process with one send on that process's
// resume channel. Run's goroutine gets the loop back, over one buffered
// channel, only when the run is over or a closure event (At/After) is
// due: closures always execute on the goroutine that called Run, so a
// panicking closure unwinds Run's caller and never a process. Windowed
// mode partitions execution into horizon windows bounded by the latency
// model's lookahead (SetLookahead); within a window shards execute
// independently — by construction they cannot interact before the
// horizon — under the same protocol, one shard's queue at a time
// (shard.runLoop), and the results remain bit-identical to the serial
// order. Both executors hand control to a process through the same
// helper (handoff).
//
// Virtual time is represented as time.Duration offsets from the start
// of the simulation. Sleeping, blocking on a condition, and waking
// other processes are the only ways time advances; wall-clock time
// never leaks into the simulation.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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

	// Windowed-mode counters: windows executed, the total number of
	// shard activations across windows (occupancy = window_shards /
	// windows), and windows whose horizon was cut short by a pending
	// system-shard event rather than the full lookahead.
	CtrWindows       = "engine.windows"
	CtrWindowShards  = "engine.window_shards"
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

// maxTime is the +infinity sentinel of horizon computations.
const maxTime = Time(math.MaxInt64)

// Event is a scheduled callback. Events with equal times fire in
// scheduling order within their originating shard (FIFO), with the
// originating shard's id breaking cross-shard ties, which keeps runs
// deterministic in both serial and windowed mode.
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
// the handle-validity note on Event for already-fired events. Cancel
// must be called from the event's own shard (or any single-threaded
// phase); canceling another shard's event mid-window is a data race.
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

	stopped  bool
	running  bool
	shutdown bool

	// Global-loop state (see drive). until and quota bound the current
	// Run; stepping is the shard whose popped event is executing (still
	// in heads, under a stale key); group/groupAt is the cursor through
	// a popped group wake; idle carries the one token that passes the
	// loop back to Run's goroutine (and acknowledges Shutdown orders).
	until    Time
	quota    int64
	stepping *shard
	group    *Event
	groupAt  int
	idle     chan struct{}
	rests    uint64 // times Run's goroutine blocked on idle (pinned by tests)

	// ctx is the shard whose event (or setup code) is currently
	// executing in a single-threaded phase; engine-level scheduling
	// APIs (At, After, Spawn, WakeAt) stamp events with it. During
	// windowed shard execution it is not meaningful — window code must
	// use Proc-scoped APIs, which derive the context from the process.
	ctx *shard

	// Windowed-mode configuration and state.
	workers   int  // 0 = serial; >=1 enables windowed execution
	lookahead Time // cross-shard latency lower bound (0 disables windowed)
	inWindow  bool // inside a window's shard-execution phase
	curH      Time // current window horizon (0 outside windows)
	active    []*shard
	dirty     []*shard // shards with pending inbox entries
	dirtyMu   sync.Mutex

	// Window-chain bookkeeping (see runWindow/runChain): the cursor
	// into active, the count of active shards not yet exhausted, and
	// the one-token channel the last finisher signals. Buffered so the
	// finisher never blocks, even when it is the coordinator itself.
	winNext atomic.Int64
	winLeft atomic.Int64
	winDone chan struct{}

	procs     []*Proc
	liveProcs int
	procMu    sync.Mutex // guards procs/freeProcs for mid-window spawns

	// Reuse pools. freeProcs recycles Proc structs (and their resume
	// channels) across Reset cycles; procSlices recycles group-wake
	// waiter backing arrays, keyed on exact capacity so a communicator's
	// waiter list round-trips through the pool without reallocating.
	freeProcs  []*Proc
	procSlices map[int][][]*Proc
	sliceMu    sync.Mutex

	// Windowed-run tallies (coordinator-only).
	windows       uint64
	windowShards  uint64
	horizonStalls uint64

	// Observability (see SetRecorder). rec is never nil.
	rec          obs.Recorder
	traceProcs   bool
	depthEvented int
	// synced copies of the tallies already folded into the recorder.
	eventsSynced                                    uint64
	sleepsSynced                                    uint64
	spawnsSynced                                    uint64
	exitsSynced                                     uint64
	windowsSynced, windowShardsSynced, stallsSynced uint64
}

// NewEngine returns an engine whose random stream is seeded with seed.
// Two engines built with the same seed and driven by the same program
// produce identical event sequences.
func NewEngine(seed int64) *Engine {
	e := &Engine{
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		rec:     obs.Disabled,
		winDone: make(chan struct{}, 1),
		idle:    make(chan struct{}, 1),
	}
	e.ctx = e.shardFor(0)
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
// virtual-time results. Structured-event recording is only supported
// in serial mode (windowed workers would race on the sink); counters
// and gauges are folded at window barriers and work in every mode.
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

// Now returns the current virtual time: in serial mode the time of the
// last dispatched event, in windowed mode the committed horizon (no
// pending event is earlier than it). Process bodies should prefer
// Proc.Now, which is exact in both modes.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only
// be used from setup code, system-shard (shard 0) events, and tests —
// contexts that execute serially in every mode. Rank-context code uses
// per-rank streams (see Rng) so draws are independent of cross-shard
// execution order.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed of the engine's current random stream; worlds
// derive per-rank and keyed streams from it.
func (e *Engine) Seed() int64 { return e.seed }

// SetParallel selects windowed (conservative parallel-DES) execution
// with the given worker count; 0 restores serial execution. Windowed
// execution also requires a positive lookahead (SetLookahead) — without
// one Run falls back to the serial loop. workers == 1 runs the windowed
// algorithm on the coordinator goroutine alone: on a single-core host
// that is the fast configuration (the speedup comes from shard-local
// batching, not concurrency), while workers > 1 executes a window's
// shards on that many goroutines.
func (e *Engine) SetParallel(workers int) {
	if e.running {
		panic("sim: SetParallel while running")
	}
	if workers < 0 {
		workers = 0
	}
	e.workers = workers
}

// Parallel reports the configured windowed worker count (0 = serial).
func (e *Engine) Parallel() int { return e.workers }

// SetLookahead declares the minimum virtual-time distance between an
// action on one shard and its earliest possible effect on another —
// for the MPI world, the latency model's jitter-adjusted minimum of
// Base and CollBase. Windowed execution is sound exactly when every
// cross-shard interaction respects it; the engine enforces it with a
// panic on violation, so a too-large value fails loudly rather than
// corrupting results.
func (e *Engine) SetLookahead(d Time) {
	if d < 0 {
		d = 0
	}
	e.lookahead = d
}

// Lookahead returns the declared cross-shard lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// EventsFired reports how many events have executed so far, summed
// over shards. Inline-executed sleeps (the windowed fast path) count
// exactly like the wake events the serial engine fires for them, so
// the tally is mode-independent.
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
func (e *Engine) LiveProcs() int {
	e.procMu.Lock()
	defer e.procMu.Unlock()
	return e.liveProcs
}

// scheduleLocal allocates an event on shard s with s's own counter
// stamp and pushes it. The caller must be executing on s (its window
// worker, its dispatched process, or a single-threaded phase with
// ctx == s). floor is the causality check reference.
func (e *Engine) scheduleLocal(s *shard, t Time) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before shard %d time %v", t, s.id, s.now))
	}
	ev := s.alloc()
	ev.when = t
	ev.src = s.id
	ev.seq = s.seq
	s.seq++
	s.queue.push(ev)
	s.notePush()
	if !e.inWindow {
		e.onHeadChanged(s, ev)
	}
	return ev
}

// schedulePost allocates an event stamped by src's shard counter and
// routes it to dst's shard: the deterministic cross-shard post behind
// message deliveries. Outside window execution (setup, system events,
// serial runs) the event is pushed directly; during a window it goes
// through the target's inbox when other workers may own the target.
func (e *Engine) schedulePost(src, dst *shard, t Time) *Event {
	if src == dst {
		return e.scheduleLocal(src, t)
	}
	ev := src.alloc()
	ev.when = t
	ev.src = src.id
	ev.seq = src.seq
	src.seq++
	e.routeRemote(dst, ev)
	return ev
}

// scheduleWake allocates a canonical wake event for p: stamped with
// p's home shard and p's shard-local id rather than any scheduler
// counter, because cross-shard wakers' identities (who completed the
// collective last) depend on execution order. The canonical stamp
// makes the event's queue position a pure function of mode-independent
// data, so serial and windowed runs order it identically. The event
// comes from p's own shard's pool — the one its firing recycles it into,
// so neither pool drains into the other — except in a multi-worker
// window, where p's shard may be executing concurrently and the waker's
// pool is the only one this goroutine owns.
func (e *Engine) scheduleWake(src *shard, p *Proc, t Time) *Event {
	s := p.shard
	pool := s
	if e.inWindow && e.workers > 1 {
		pool = src
	}
	ev := pool.alloc()
	ev.when = t
	ev.src = s.id
	ev.seq = wakeSeqBit | p.localID
	ev.proc = p
	if s == src {
		// Waking a peer on one's own shard is shard-local: no lookahead
		// constraint and no routing indirection.
		if t < s.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before shard %d time %v", t, s.id, s.now))
		}
		s.queue.push(ev)
		s.notePush()
		if !e.inWindow {
			e.onHeadChanged(s, ev)
		}
		return ev
	}
	e.routeRemote(s, ev)
	return ev
}

// routeRemote inserts a stamped event into target's queue, via the
// inbox when the target may be concurrently executing its own window.
func (e *Engine) routeRemote(target *shard, ev *Event) {
	if ev.when < target.committed {
		panic(fmt.Sprintf(
			"sim: lookahead violation: event at %v posted to shard %d committed through %v",
			ev.when, target.id, target.committed))
	}
	if !e.inWindow {
		if ev.when < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.when, e.now))
		}
		target.queue.push(ev)
		target.notePush()
		e.onHeadChanged(target, ev)
		return
	}
	if e.curH > 0 && ev.when < e.curH {
		panic(fmt.Sprintf(
			"sim: lookahead violation: cross-shard event at %v inside window horizon %v",
			ev.when, e.curH))
	}
	if e.workers <= 1 {
		// Single-driver window: the coordinator is the only goroutine
		// touching any queue, so the inbox indirection is unnecessary.
		target.queue.push(ev)
		target.notePush()
		if !target.active {
			e.onHeadChanged(target, ev)
		}
		return
	}
	target.inboxMu.Lock()
	target.inbox = append(target.inbox, ev)
	target.inboxMu.Unlock()
	e.dirtyMu.Lock()
	if !target.indirty {
		target.indirty = true
		e.dirty = append(e.dirty, target)
	}
	e.dirtyMu.Unlock()
}

// notePush records depth bookkeeping after a queue push; the ~2x-growth
// structured depth event is only emitted from single-threaded phases.
func (s *shard) notePush() {
	n := len(s.queue)
	if n > s.maxDepth {
		s.maxDepth = n
		e := s.eng
		if !e.inWindow && e.rec.Enabled() && n >= 2*e.depthEvented {
			e.depthEvented = n
			e.rec.Event(e.now, EvQueueDepth, obs.Int("depth", int64(n)))
		}
	}
}

// GetProcSlice returns an empty process slice with at least the given
// capacity, reusing a pooled backing array when one of that exact
// capacity is available. Callers either hand the slice back through
// PutProcSlice or transfer ownership to the engine via WakeAllAt.
// The pool is mutex-guarded: collectives on different communicators
// may request slices from concurrent windowed workers.
func (e *Engine) GetProcSlice(capacity int) []*Proc {
	if capacity < 1 {
		capacity = 1
	}
	e.sliceMu.Lock()
	defer e.sliceMu.Unlock()
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
	e.sliceMu.Lock()
	if e.procSlices == nil {
		e.procSlices = make(map[int][][]*Proc)
	}
	e.procSlices[cap(s)] = append(e.procSlices[cap(s)], s[:0])
	e.sliceMu.Unlock()
}

// WakeAllAt schedules every process in procs to resume at time t.
// Serially that is a single queued group event — one heap insertion
// instead of one per waiter, which keeps large collectives O(log queue)
// instead of O(N log queue); in windowed mode each waiter gets a
// canonical per-shard wake event. Processes are dispatched in slice
// order, and each dispatch counts as one fired event, so the wake
// order and the engine's event tally are identical across modes. Every
// process must be suspended; ownership of the slice transfers to the
// engine (a group event returns it to the proc-slice pool after
// firing; the fan-out path returns it immediately). An empty slice
// schedules nothing and returns nil.
//
// It must be called from a single-threaded phase or, in windowed mode,
// from the caller process ctx (see Proc.WakeAllAt, which collectives
// use).
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
	if e.workers > 0 && e.lookahead > 0 {
		// Windowed: canonical per-waiter wakes, identical order. With
		// multiple window workers a cross-shard waiter's state word may
		// still be in flight (it parks after registering), so marking is
		// deferred to the window barrier; see Proc.WakePeerAt.
		deferCross := e.inWindow && e.workers > 1
		for _, p := range procs {
			if deferCross && p.shard != src {
				e.scheduleWake(src, p, t)
				continue
			}
			if p.state != ProcSuspended {
				panic(fmt.Sprintf("sim: WakeAllAt(%s) in state %s", p.Name, p.state))
			}
			p.state = ProcSleeping
			p.wake = e.scheduleWake(src, p, t)
		}
		e.PutProcSlice(procs)
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
// context shard (shard 0 for setup/system code). It must only be
// called from single-threaded phases — setup, tests, system events,
// or any serial run; windowed rank code uses Proc-scoped scheduling.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.scheduleCtx(t)
	ev.fn = fn
	return ev
}

// scheduleCtx schedules on the current single-threaded context shard
// with the engine-clock causality check (the pre-sharding contract).
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
	s.queue.push(ev)
	s.notePush()
	e.onHeadChanged(s, ev)
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
	if d := e.windows - e.windowsSynced; d > 0 {
		e.windowsSynced = e.windows
		e.rec.Count(CtrWindows, int64(d))
	}
	if d := e.windowShards - e.windowShardsSynced; d > 0 {
		e.windowShardsSynced = e.windowShards
		e.rec.Count(CtrWindowShards, int64(d))
	}
	if d := e.horizonStalls - e.stallsSynced; d > 0 {
		e.stallsSynced = e.horizonStalls
		e.rec.Count(CtrHorizonStalls, int64(d))
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

// Stop halts the run loop after the currently executing event (or, in
// windowed mode, the current window) completes. Pending events remain
// queued; a subsequent Run call resumes from them.
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
// With SetParallel(n>0) and a positive SetLookahead, Run uses the
// windowed conservative executor; results are bit-identical to the
// serial loop.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run while running")
	}
	e.stopped = false
	e.running = true
	e.until = until
	defer func() {
		e.running = false
		e.inWindow = false
		e.curH = 0
		// Only a panic unwinding mid-window leaves shards here: zero their
		// horizons so parked ranks acknowledge Shutdown instead of
		// re-entering a window loop nobody will finish.
		for _, s := range e.active {
			s.horizon = 0
		}
		e.ctx = e.shards[0]
		e.syncObs()
	}()
	if e.workers > 0 && e.lookahead > 0 {
		return e.runWindowed(until)
	}
	e.runSerial(math.MaxInt64)
	return e.now
}

// runSerial owns the global event loop on Run's goroutine until the run
// is over or quota events have been popped (the windowed executor steps
// a system-shard event through it with quota 1). drive returns here
// only to rest or after handing the loop to a process; the loop then
// travels from process to process without this goroutine and comes back
// through idle — once per run for a program of processes and payload
// callbacks alone, once per closure event otherwise.
func (e *Engine) runSerial(quota int64) {
	e.quota = quota
	for e.drive(nil) == loopHanded {
		e.rests++
		<-e.idle
	}
}

// drive continues the global event loop on the calling goroutine:
// Run's (self == nil) or that of the process which just parked or
// exited (self). Whoever parks drives — it pops the earliest event in
// the system and runs payload callbacks inline, hands control to the
// next dispatched process (see handoff: no switch when that is self,
// one resume send otherwise), and where the loop needs Run's goroutine
// — the run is over (queue empty, Stop, until, quota) or a closure
// event is due — a driving process signals idle and stays parked.
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
			return handoff(q, self, t)
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
		if e.quota == 0 || e.stopped || len(e.heads) == 0 {
			return e.rest(self)
		}
		s := e.heads[0].s
		ev := s.queue[0]
		if e.until > 0 && ev.when > e.until {
			e.now = e.until
			return e.rest(self)
		}
		if self != nil && ev.fn != nil && !ev.canceled {
			return e.rest(self) // a canceled closure is anyone's to skip
		}
		s.queue.popMin()
		s.active = true
		e.stepping = s
		e.quota--
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
			// Recycled before the resume send: afterwards the event, like
			// everything else, belongs to the dispatched process.
			q, t := ev.proc, ev.when
			s.fired++
			s.recycle(ev)
			return handoff(q, self, t)
		case ev.procs != nil:
			// One heap pop releases the whole waiter list; each dispatch
			// counts as a fired event, like the one-event-per-waiter form
			// the windowed mode uses.
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
// process passes it back through idle and stays parked.
func (e *Engine) rest(self *Proc) loopAction {
	if self == nil {
		return loopDone
	}
	e.idle <- struct{}{}
	return loopHanded
}

// RunAll runs with no time limit.
func (e *Engine) RunAll() Time { return e.Run(0) }

// PendingEvents reports the number of queued (possibly canceled)
// events across all shards and inboxes.
func (e *Engine) PendingEvents() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.queue) + len(s.inbox)
	}
	return n
}

// Shutdown terminates every live simulated process, releasing their
// goroutines. Campaigns that run thousands of simulations — many ending
// in hangs whose processes would otherwise stay parked forever — call
// this after each run to keep goroutine and memory usage flat. The
// engine must not be running; after Shutdown it must not be reused
// until Reset.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while running")
	}
	e.shutdown = true
	for _, p := range e.procs {
		for p.state == ProcReady || p.state == ProcSleeping || p.state == ProcSuspended {
			// Hand the goroutine control; park/Sleep (or the spawn
			// wrapper, for never-started processes) observes the
			// shutdown flag and unwinds via a procExit panic; the spawn
			// wrapper recovers it and acknowledges on idle.
			p.resume <- struct{}{}
			<-e.idle
		}
	}
	e.syncObs()
}

// Reset returns the engine to its just-constructed state with a fresh
// random stream seeded with seed, while retaining every warm structure
// (shards, event free lists, processes, group-wake slices). A reset
// engine is indistinguishable from NewEngine(seed) to the simulation —
// virtual time, event sequence numbers, the random stream, and all
// counters restart from zero — which is what lets campaigns reuse one
// engine across seeds instead of reallocating per run. Live processes
// are Shutdown first; the attached recorder is kept (pass a new one via
// SetRecorder for the next run). Parallelism and lookahead revert to
// serial defaults; callers re-apply them per run.
func (e *Engine) Reset(seed int64) {
	if e.running {
		panic("sim: Reset while running")
	}
	e.Shutdown()
	for _, s := range e.shards {
		s.reset()
	}
	e.heads = e.heads[:0]
	e.stepping, e.group, e.groupAt = nil, nil, 0
	for i, p := range e.procs {
		// All processes are Done after Shutdown; their goroutines have
		// exited, so the structs (and resume channels) are reusable.
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
	e.shutdown = false
	e.workers = 0
	e.lookahead = 0
	e.inWindow = false
	e.curH = 0
	e.active = e.active[:0]
	e.dirty = e.dirty[:0]
	e.windows = 0
	e.windowShards = 0
	e.horizonStalls = 0
	e.eventsSynced = 0
	e.sleepsSynced = 0
	e.spawnsSynced = 0
	e.exitsSynced = 0
	e.windowsSynced = 0
	e.windowShardsSynced = 0
	e.stallsSynced = 0
	e.depthEvented = 0
	e.ctx = e.shards[0]
	e.seed = seed
	e.rng.Seed(seed)
}

// procExit is the sentinel panic used to unwind a simulated process's
// goroutine during Shutdown. Process bodies' defers run normally.
type procExit struct{}
