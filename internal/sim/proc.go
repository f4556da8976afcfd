package sim

import (
	"fmt"
	"iter"
	"runtime"
	"time"

	"parastack/internal/obs"
)

// ProcState describes what a simulated process is currently doing from
// the scheduler's point of view.
type ProcState int

const (
	// ProcReady means the process has been spawned but not yet started.
	ProcReady ProcState = iota
	// ProcRunning means the process currently holds control.
	ProcRunning
	// ProcSleeping means the process is parked with a wake event queued.
	ProcSleeping
	// ProcSuspended means the process is parked with no wake event; it
	// will only resume when some other process or event calls Wake.
	ProcSuspended
	// ProcDone means the process body returned.
	ProcDone
)

// String implements fmt.Stringer.
func (s ProcState) String() string {
	switch s {
	case ProcReady:
		return "ready"
	case ProcRunning:
		return "running"
	case ProcSleeping:
		return "sleeping"
	case ProcSuspended:
		return "suspended"
	case ProcDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is a simulated process: a body running on a runtime coroutine
// that the engine resumes only when it hands the process control, and
// that advances virtual time by sleeping or suspending. All Proc
// methods that block (Sleep, Suspend) must be called from the process's
// own body.
//
// Every process is homed on one shard: its sleep wakes and spawned
// events are stamped by that shard and execute on it, and its
// shard-local id is its canonical wake stamp.
type Proc struct {
	ID   int
	Name string

	eng     *Engine
	shard   *shard
	localID uint64 // shard-local spawn index (canonical wake stamps)
	co      *coro  // carries the body; pooled with the Proc across Reset
	state   ProcState
	wake    *Event // pending wake event while sleeping
	now     Time   // the process's own virtual clock

	// penalty accumulates virtual time stolen from this process by
	// external activity (e.g. a monitor stack-tracing it). It is
	// consumed by the next Sleep call. This models ptrace-style
	// suspend/resume overhead without needing to preempt the process.
	penalty time.Duration
}

// State returns the scheduler-visible state of the process.
func (p *Proc) State() ProcState { return p.state }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the process's current virtual time: the time of the event
// that last dispatched it. While the process runs that equals
// Engine.Now; outside its own execution it reports the time the process
// last ran, which observers (a collective releasing parked members)
// read as the member's entry time.
func (p *Proc) Now() Time { return p.now }

// Shard reports the id of the shard the process is homed on.
func (p *Proc) Shard() int { return int(p.shard.id) }

// newProc allocates (or reuses) a Proc homed on shard s, with a
// coroutine ready to run its body.
func (e *Engine) newProc(name string, s *shard) *Proc {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		// Reuse a pooled Proc from a previous Reset cycle; its coroutine,
		// if still alive, idles between bodies.
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
	} else {
		p = &Proc{}
	}
	if p.co == nil || p.co.slot < 0 {
		p.co = e.coros.add()
	}
	p.ID = len(e.procs)
	p.Name = name
	p.eng = e
	p.shard = s
	p.state = ProcReady
	p.now = 0
	e.procs = append(e.procs, p)
	e.liveProcs++
	p.localID = s.procSeq
	s.procSeq++
	e.spawns++
	return p
}

// spawn creates a process homed on shard home, with its start event
// stamped by shard src (the caller's context), and loads body into the
// process's coroutine, which first runs it when the start event
// dispatches the process.
func (e *Engine) spawn(src, home *shard, name string, start Time, body func(*Proc)) *Proc {
	if start < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", start, e.now))
	}
	p := e.newProc(name, home)
	if e.rec.Enabled() {
		e.rec.Event(start, EvProcSpawn, obs.Int("proc", int64(p.ID)), obs.Str("name", name))
	}
	p.co.p, p.co.body = p, body
	var ev *Event
	if src == home {
		ev = e.scheduleLocal(home, start)
	} else {
		ev = e.schedulePost(src, home, start)
	}
	ev.proc = p
	return p
}

// A coro is a goroutine that carries process bodies, together with
// the switch point (slot) control reaches it through. Both come from one
// iter.Pull: its coroutine runs one body per spawn, from the first
// dispatch of the process to the body's end, and then idles until it is
// handed the next. The runtime coro under an iter.Pull always has
// exactly one goroutine blocked in it, and whoever releases that
// goroutine — with next when it waits inside the slot's next or has not
// started, with yield when it waits inside the slot's yield — becomes
// the one blocked there. iter.Pull checks only that next and yield
// alternate, not which goroutine calls them, so any participant hands
// control to any other with one coroswitch: it releases the slot the
// target is blocked in (see switchTo). Which goroutine is blocked in
// which slot rotates; each coro records where its own is.
//
// An idle coro holds no pointer to a Proc or an Engine, so an unwound
// engine is collectable and its cleanup stops the coros (see coroPool).
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// at is the slot this coro's goroutine is blocked in while another
	// participant holds control: its own until it first runs.
	at *coro

	// p and body are the spawned process and its body, loaded by spawn
	// and taken by run when the body starts.
	p    *Proc
	body func(*Proc)

	pool *coroPool
	slot int // index in pool.all; -1 once the goroutine has finished

	// inNext: the goroutine blocked in this slot waits inside its next,
	// so yield releases it; otherwise it waits inside yield, or is this
	// coro's own goroutine not yet started, and next releases it.
	inNext bool
	quit   bool // stopAll's order to end the goroutine
}

// loop is the coroutine's body: one process body per handover, each
// ending with the switch to whoever the body's end handed control to,
// which is where the coroutine idles until it is handed the next. It
// ends on stopAll's order, or with a body that panics or calls Goexit
// (see end), and leaves the pool for good then.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	defer c.end()
	for !c.quit {
		c.switchTo(c.run())
	}
}

// run executes the loaded body, or only its exit when the engine is
// unwinding before the process ever ran, and returns the participant
// the body's end hands control to.
func (c *coro) run() *coro {
	p, body := c.p, c.body
	c.p, c.body = nil, nil
	p.run(body)
	return p.eng.successor()
}

// run executes body as p's, with p's exit deferred.
func (p *Proc) run(body func(*Proc)) {
	defer p.exit()
	if p.eng.unwinding {
		panic(procExit{})
	}
	body(p)
}

// exit retires p once its body has returned or unwound. A procExit is
// the engine's own termination order; any other panic is a bug in the
// body, which leaves p Done and travels on to Run's caller, ending the
// coroutine with it. A normal exit drives the loop on, exactly like a
// park that is never resumed.
func (p *Proc) exit() {
	r := recover()
	e := p.eng
	p.state = ProcDone
	e.exits++
	e.liveProcs--
	if e.rec.Enabled() {
		e.rec.Event(e.now, EvProcStop, obs.Int("proc", int64(p.ID)), obs.Str("name", p.Name))
	}
	if r != nil {
		if _, ok := r.(procExit); !ok {
			panic(r)
		}
	}
	if !e.unwinding {
		e.drive(p) // p is Done: the loop is handed on or comes to rest
	}
}

// switchTo hands control from c, which holds it, to q, and returns once
// control is back with c.
func (c *coro) switchTo(q *coro) { c.pass(q, q.at) }

// pass hands control from c to q with one coroswitch: c releases the
// goroutine blocked in slot s — the one q is blocked in, or, for a
// dying coroutine, c's own — and blocks there in its place. It returns
// once control is back with c. A goroutine that ends also releases
// whoever is blocked in its slot, and that need not be the participant
// meant to run next; so a coro that wakes while cur names someone else
// passes control on to cur.
func (c *coro) pass(q, s *coro) {
	cp := c.pool
	cp.cur = q
	for {
		if q == &cp.outer {
			cp.outerSwitches++
		}
		c.at = s
		cp.switches++
		if s.inNext {
			s.inNext = false
			s.yield(struct{}{})
		} else {
			s.inNext = true
			s.next()
		}
		if q = cp.cur; q == c {
			return
		}
		s = q.at
	}
}

// end retires the coroutine: on stopAll's order, or under a body's
// panic or Goexit. Its goroutine's end releases whoever is blocked in
// c's slot, so end first names the outer goroutine as cur: the
// released coro passes control on to it, and it raises the body's
// fault (see resume). A panic is recovered here and carried as a value,
// so iter.Pull does not re-raise it in the released goroutine. A Goexit
// cannot be stopped, and iter.Pull repeats it in a goroutine released
// from the slot's next; so the dying coroutine first blocks in its own
// slot, and ends only when the outer goroutine releases it, which
// leaves the outer goroutine the one the Goexit reaches.
func (c *coro) end() {
	cp := c.pool
	cp.drop(c)
	cp.cur = &cp.outer
	if c.quit {
		return
	}
	if r := recover(); r != nil {
		cp.fault = r
		return
	}
	cp.fault, cp.dying = goexitFault{}, c
	c.pass(&cp.outer, c)
	cp.cur = &cp.outer
}

// goexitFault is the fault of a body that called runtime.Goexit.
type goexitFault struct{}

// coroPool is every live coroutine an engine has created, and the
// switchboard control passes through. It holds no pointer to the
// engine, which lets a runtime cleanup on the engine stop the pool once
// the engine is unreachable.
type coroPool struct {
	all []*coro

	// outer stands for the one goroutine outside the pool that takes
	// part: the caller of Run, Unwind or Shutdown, or the engine's
	// cleanup. It has no slot of its own, and control comes back to it
	// only when the loop comes to rest, an unwound body ends, or a
	// coroutine dies.
	outer coro
	// cur is the participant that should hold control (see pass).
	cur *coro
	// fault is a body's panic value, or goexitFault, on its way to the
	// outer goroutine; dying is the coro whose body called Goexit,
	// blocked in its own slot until the outer goroutine lets it end.
	fault any
	dying *coro

	// switches counts coroswitches; outerSwitches those made to hand
	// control to the outer goroutine (pinned by tests).
	switches, outerSwitches uint64
}

// newCoroPool returns an empty pool, its outer participant in place.
func newCoroPool() *coroPool {
	cp := &coroPool{}
	cp.outer.pool = cp
	return cp
}

// add creates a coroutine, blocked in its own slot before its first
// body.
func (cp *coroPool) add() *coro {
	c := &coro{pool: cp, slot: len(cp.all)}
	c.at = c
	c.next, _ = iter.Pull(c.loop)
	cp.all = append(cp.all, c)
	return c
}

// drop removes c from the pool; it is idempotent.
func (cp *coroPool) drop(c *coro) {
	if c.slot < 0 {
		return
	}
	last := cp.all[len(cp.all)-1]
	cp.all[c.slot] = last
	last.slot = c.slot
	cp.all[len(cp.all)-1] = nil
	cp.all = cp.all[:len(cp.all)-1]
	c.slot = -1
}

// resume hands control from the outer goroutine to c and returns when
// it comes back, raising the panic or Goexit of a body that ended on
// the way.
func (cp *coroPool) resume(c *coro) {
	cp.outer.switchTo(c)
	f := cp.fault
	cp.fault = nil
	if d := cp.dying; d != nil {
		cp.dying = nil
		cp.outer.switchTo(d) // d ends, and iter.Pull may Goexit us here
	}
	if _, ok := f.(goexitFault); ok {
		runtime.Goexit()
	}
	if f != nil {
		panic(f)
	}
}

// stopAll ends every coroutine in the pool, releasing its goroutine.
// Every coroutine must be idle: between bodies, or never started.
func (cp *coroPool) stopAll() {
	for n := len(cp.all); n > 0; n = len(cp.all) {
		c := cp.all[n-1]
		c.quit = true
		cp.outer.switchTo(c)
	}
}

// Spawn creates a process on the current context shard (shard 0 for
// setup, tests, and system events) that begins executing body at
// virtual time start (which must not be in the past).
func (e *Engine) Spawn(name string, start Time, body func(*Proc)) *Proc {
	return e.spawn(e.ctx, e.ctx, name, start, body)
}

// SpawnOn creates a process homed on the given shard (growing the
// shard table as needed). The MPI world homes each group of ranks on
// its own shard; shard 0 is reserved for system activity. The start
// event is stamped by the context shard, so it is for setup code and
// system events.
func (e *Engine) SpawnOn(shardID int, name string, start Time, body func(*Proc)) *Proc {
	if shardID < 0 {
		panic("sim: SpawnOn with negative shard")
	}
	return e.spawn(e.ctx, e.shardFor(int32(shardID)), name, start, body)
}

// SpawnNow is Spawn starting at the current virtual time.
func (e *Engine) SpawnNow(name string, body func(*Proc)) *Proc {
	return e.spawn(e.ctx, e.ctx, name, e.now, body)
}

// SpawnNow creates a child process homed on p's own shard, starting at
// p's current time. Mid-run spawns (worker threads) go through the
// parent so the child lands on, and is stamped by, the parent's shard.
func (p *Proc) SpawnNow(name string, body func(*Proc)) *Proc {
	return p.eng.spawn(p.shard, p.shard, name, p.now, body)
}

// handoff gives control to q at virtual time t on behalf of the loop
// owner self (nil on Run's goroutine): the one way a process is made
// to run. When q is the owner itself — its own wake came up next — it
// simply keeps going; otherwise q is recorded as the process control
// passes to next, and the owner switches to it at once.
func (e *Engine) handoff(q, self *Proc, t Time) loopAction {
	if q.state == ProcDone {
		panic("sim: dispatching terminated process " + q.Name)
	}
	q.state = ProcRunning
	q.wake = nil
	q.now = t
	if q == self {
		return loopSelf
	}
	e.next = q
	return loopHanded
}

// park gives up control and blocks until resumed. Whoever parks
// drives: the parking process itself carries the event loop
// (Engine.drive) forward. It resumes inline when its own wake is the
// next dispatch; otherwise it switches straight to the process the loop
// recorded or, if the loop came to rest, to Run's goroutine, which
// drives on itself. During an unwind the park is an acknowledgement and
// the resume a termination order: park unwinds the body with a
// procExit panic so the caller's defers still run.
func (p *Proc) park(state ProcState) {
	p.state = state
	e := p.eng
	if !e.unwinding && e.drive(p) == loopSelf {
		return
	}
	p.co.switchTo(e.successor())
	if e.unwinding {
		panic(procExit{})
	}
}

// Sleep advances the process's virtual clock by d plus any accumulated
// external penalty. A nonpositive d with no penalty still yields to the
// scheduler at the current instant, preserving event ordering fairness.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	d += p.penalty
	p.penalty = 0
	p.sleepTo(p.now + d)
}

// SleepUntil parks the process until absolute time t without consuming
// any tracing penalty: the raw wait the MPI collectives use for their
// internal rendezvous, so that penalty is charged against program-order
// sleeps only — an accounting that cannot depend on which member a
// collective's wake happens to route through.
func (p *Proc) SleepUntil(t Time) {
	if t < p.now {
		t = p.now
	}
	p.sleepTo(t)
}

func (p *Proc) sleepTo(t Time) {
	e := p.eng
	e.sleeps++
	if e.traceProcs && e.rec.Enabled() {
		e.rec.Event(e.now, EvProcSleep, obs.Int("proc", int64(p.ID)), obs.Dur("dur_us", t-p.now))
	}
	ev := e.scheduleLocal(p.shard, t)
	ev.proc = p
	p.wake = ev
	p.park(ProcSleeping)
}

// Suspend parks the process indefinitely; it resumes only when another
// party calls Wake (or WakeAt). This is how blocking MPI calls wait for
// a matching event.
func (p *Proc) Suspend() {
	p.park(ProcSuspended)
}

// WakeAt schedules a suspended process to resume at time t, stamped by
// the current context shard. It panics if the process is not suspended:
// waking a sleeping or running process would corrupt the handoff
// protocol, and indicates a logic error in the caller (e.g. completing
// the same MPI request twice). Simulated processes waking each other
// use WakeAtLocal (same shard) or WakePeerAt (cross-shard), whose
// stamps do not depend on the context shard.
func (p *Proc) WakeAt(t Time) {
	if p.state != ProcSuspended {
		panic(fmt.Sprintf("sim: WakeAt(%s) in state %s", p.Name, p.state))
	}
	// Mark as sleeping-with-event so a second WakeAt panics.
	p.state = ProcSleeping
	ev := p.eng.scheduleCtx(t)
	ev.proc = p
	p.wake = ev
}

// WakeAtLocal schedules a suspended process to resume at time t with
// its home shard's own counter stamp. The caller must be executing on
// p's shard (e.g. a delivery event completing the receive it matches,
// or a thread joining its sibling).
func (p *Proc) WakeAtLocal(t Time) {
	if p.state != ProcSuspended {
		panic(fmt.Sprintf("sim: WakeAt(%s) in state %s", p.Name, p.state))
	}
	p.state = ProcSleeping
	ev := p.eng.scheduleLocal(p.shard, t)
	ev.proc = p
	p.wake = ev
}

// WakePeerAt schedules suspended process q to resume at time t, from
// p's execution context. The wake event carries q's canonical stamp
// (home shard, shard-local id) rather than p's counter: the identity
// of the process that happens to perform a cross-shard wake (say, the
// last rank to arrive at a collective) depends on execution order, so
// the event's queue position is derived from the woken process alone,
// and the event order does not hinge on who the waker was.
func (p *Proc) WakePeerAt(q *Proc, t Time) {
	if q.state != ProcSuspended {
		panic(fmt.Sprintf("sim: WakeAt(%s) in state %s", q.Name, q.state))
	}
	q.state = ProcSleeping
	q.wake = p.eng.scheduleWake(p.shard, q, t)
}

// Wake resumes a suspended process at the current virtual time (see
// WakeAt for the context contract).
func (p *Proc) Wake() { p.WakeAt(p.eng.now) }

// WakeAllAt schedules every process in procs to resume at time t from
// p's execution context; see Engine.WakeAllAt for ordering and slice
// ownership.
func (p *Proc) WakeAllAt(t Time, procs []*Proc) {
	p.eng.wakeAll(p.shard, t, procs)
}

// Post schedules a payload callback at time t on dst's home shard,
// stamped by p's shard: the deterministic cross-shard message the MPI
// layer uses to deliver sends at their arrival time. fn should be a
// shared method value (not a fresh closure) so posting stays
// allocation-free; it receives the event's time and arg.
func (p *Proc) Post(dst *Proc, t Time, fn func(Time, any), arg any) *Event {
	ev := p.eng.schedulePost(p.shard, dst.shard, t)
	ev.pfn = fn
	ev.parg = arg
	return ev
}

// ChargePenalty steals d of virtual time from the process: its next
// Sleep will take d longer. Used to model the cost of an external
// observer (ptrace attach + stack unwind) suspending the process while
// it executes application code. Charging a process that is blocked
// inside simulated MPI is free, mirroring the paper's observation that
// tracing cost can be overlapped with application idle time.
func (p *Proc) ChargePenalty(d time.Duration) {
	if p.state == ProcSleeping || p.state == ProcRunning {
		p.penalty += d
	}
}

// PendingPenalty reports the accumulated not-yet-consumed penalty.
func (p *Proc) PendingPenalty() time.Duration { return p.penalty }

// Yield lets other events scheduled at the same instant run.
func (p *Proc) Yield() { p.Sleep(0) }
