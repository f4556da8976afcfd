package sim

import (
	"fmt"
	"time"

	"parastack/internal/obs"
)

// ProcState describes what a simulated process is currently doing from
// the scheduler's point of view.
type ProcState int

const (
	// ProcReady means the process has been spawned but not yet started.
	ProcReady ProcState = iota
	// ProcRunning means the process goroutine currently holds control.
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

// Proc is a simulated process: a goroutine that runs only when the
// engine hands it control, and that advances virtual time by sleeping
// or suspending. All Proc methods that block (Sleep, Suspend) must be
// called from the process's own goroutine.
//
// Every process is homed on one shard: its sleep wakes and spawned
// events are stamped by that shard and live in its queue, and its
// shard-local id is its canonical wake stamp.
type Proc struct {
	ID   int
	Name string

	eng     *Engine
	shard   *shard
	localID uint64 // shard-local spawn index (canonical wake stamps)
	resume  chan struct{}
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

// newProc allocates (or reuses) a Proc homed on shard s.
func (e *Engine) newProc(name string, s *shard) *Proc {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		// Reuse a pooled Proc (and its resume channel) from a previous
		// Reset cycle; its goroutine has exited, so the channel is idle.
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
	} else {
		p = &Proc{resume: make(chan struct{})}
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
	s.spawns++
	return p
}

// spawn creates a process homed on shard home, with its start event
// stamped by shard src (the caller's context), and launches its
// goroutine in the parked state.
func (e *Engine) spawn(src, home *shard, name string, start Time, body func(*Proc)) *Proc {
	if start < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", start, e.now))
	}
	p := e.newProc(name, home)
	if e.rec.Enabled() {
		e.rec.Event(start, EvProcSpawn, obs.Int("proc", int64(p.ID)), obs.Str("name", name))
	}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procExit); !ok {
					panic(r) // real bug: propagate
				}
			}
			p.state = ProcDone
			p.shard.exits++
			e.liveProcs--
			if e.rec.Enabled() {
				e.rec.Event(e.now, EvProcStop, obs.Int("proc", int64(p.ID)), obs.Str("name", p.Name))
			}
			// Hand control on for good, exactly like a park that is never
			// resumed: acknowledge a Shutdown order, or continue the loop
			// (p is Done, so it can only hand off or come to rest).
			if e.shutdown {
				e.idle <- struct{}{}
			} else {
				e.drive(p)
			}
		}()
		<-p.resume // wait for the start event's handoff
		if e.shutdown {
			panic(procExit{})
		}
		body(p)
	}()
	var ev *Event
	if src == home {
		ev = e.scheduleLocal(home, start)
	} else {
		ev = e.schedulePost(src, home, start)
	}
	ev.proc = p
	return p
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
// simply keeps going, with no goroutine switch; otherwise q is readied
// with one resume send, after which the caller must read no engine,
// shard or event state: q owns it all.
func handoff(q, self *Proc, t Time) loopAction {
	if q.state == ProcDone {
		panic("sim: dispatching terminated process " + q.Name)
	}
	q.state = ProcRunning
	q.wake = nil
	q.now = t
	if q == self {
		return loopSelf
	}
	q.resume <- struct{}{}
	return loopHanded
}

// park gives up control and blocks until resumed. Whoever parks
// drives: the parking goroutine itself carries the event loop
// (Engine.drive) forward. It resumes inline when its own wake is the
// next dispatch, hands control straight to the next dispatched process
// otherwise, and signals Run's goroutine only when the loop comes to
// rest. During Shutdown the park is an acknowledgement and the resume a
// termination order: park unwinds the goroutine with a procExit panic
// so the caller's defers still run.
func (p *Proc) park(state ProcState) {
	p.state = state
	e := p.eng
	if e.shutdown {
		e.idle <- struct{}{}
	} else if e.drive(p) == loopSelf {
		return
	}
	<-p.resume
	if e.shutdown {
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
	s := p.shard
	e := p.eng
	s.sleeps++
	if e.traceProcs && e.rec.Enabled() {
		e.rec.Event(e.now, EvProcSleep, obs.Int("proc", int64(p.ID)), obs.Dur("dur_us", t-p.now))
	}
	ev := e.scheduleLocal(s, t)
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
