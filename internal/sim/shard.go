package sim

import (
	"sync"
)

// wakeSeqBit marks an event sequence number as a canonical wake stamp:
// the event was created by a cross-shard wake, whose *scheduler*
// identity depends on execution order, so it is keyed by the woken
// process's shard-local id instead of by any scheduler's counter. The
// bit keeps canonical stamps disjoint from per-shard counter stamps,
// preserving a total order that is identical in serial and windowed
// execution.
const wakeSeqBit = uint64(1) << 63

// eventBefore is the queue's total order: earlier virtual time first,
// then originating shard, then the origin's sequence stamp. Within one
// shard the (src, seq) pair restores plain scheduling-order FIFO; for
// the single-shard programs of the test suite the order is therefore
// exactly the pre-sharding (when, seq) contract. Because the order is
// total and independent of heap layout, serial and windowed runs pop
// the same shard's events in the same sequence.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// keyBefore compares a hypothetical event key against an existing
// event; the windowed inline-sleep fast path uses it to prove that a
// wake would be the shard's next event without materializing it.
func keyBefore(when Time, src int32, seq uint64, b *Event) bool {
	if when != b.when {
		return when < b.when
	}
	if src != b.src {
		return src < b.src
	}
	return seq < b.seq
}

// eventHeap is a binary min-heap ordered by eventBefore. The sift
// operations are hand-inlined rather than going through
// container/heap's interface so the hot path stays monomorphic: no
// `any` boxing on push/pop and no indirect Less/Swap calls.
type eventHeap []*Event

// push inserts ev, sifting it up from the last slot. Parents are moved
// down into the hole instead of swapped pairwise.
func (h *eventHeap) push(ev *Event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
	*h = q
}

// popMin removes and returns the earliest event, re-seating the last
// element by sifting it down from the root.
func (h *eventHeap) popMin() *Event {
	q := *h
	min := q[0]
	min.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return min // fast path: queue drained, nothing to re-seat
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(q[r], q[child]) {
			child = r
		}
		if !eventBefore(q[child], last) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = last
	last.index = i
	return min
}

// shard is one event queue of the sharded engine. Shard 0 is the
// system shard (monitor, detectors, watchdogs, chaos, test and setup
// callbacks); the MPI world gives every rank its own shard, so a
// shard's queue holds only the events of one logical process group and
// stays a handful of entries deep regardless of world size.
//
// Each shard owns its event free list and slab and its sequence
// counter, so during windowed execution one worker can drive a shard
// without touching any other shard's memory.
type shard struct {
	id  int32
	eng *Engine

	queue eventHeap
	seq   uint64 // counter stamp for events scheduled from this shard
	now   Time   // time of the shard's last dispatched event

	procSeq uint64 // shard-local process numbering (canonical wake stamps)

	free []*Event // recycled events
	slab []Event  // slab backing for new events (batch allocation)

	// Head-heap bookkeeping (engine-owned, coordinator-only).
	pos    int32 // index in Engine.heads; -1 when absent
	active bool  // held out of heads maintenance: stepping (stale key) or in a window

	// Windowed-execution state.
	horizon   Time // end (exclusive) of the window being executed; 0 outside
	committed Time // all events before this time have executed
	inbox     []*Event
	inboxMu   sync.Mutex
	indirty   bool // queued on Engine.dirty (guarded by Engine.dirtyMu)

	// Tallies folded into the recorder by Engine.syncObs.
	fired    uint64 // events fired (inline fast-path sleeps included)
	sleeps   uint64
	spawns   uint64
	exits    uint64
	maxDepth int
}

// alloc takes an event from the shard's free list, cutting a fresh one
// from the slab when the list is empty. Slab allocation keeps the
// startup cost of large worlds at ~1 allocation per 64 events instead
// of one each.
func (s *shard) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	if len(s.slab) == 0 {
		s.slab = make([]Event, 64)
	}
	ev := &s.slab[0]
	s.slab = s.slab[1:]
	return ev
}

// recycle resets a popped event and returns it to this shard's free
// list. Events are recycled by the shard that fired them, which may
// differ from the shard that allocated them (cross-shard posts); the
// pools drift but never leak. A group-wake event's waiter slice
// returns to the engine's proc-slice pool here.
func (s *shard) recycle(ev *Event) {
	ev.fn = nil
	ev.pfn = nil
	ev.parg = nil
	ev.proc = nil
	if ev.procs != nil {
		s.eng.PutProcSlice(ev.procs)
		ev.procs = nil
	}
	ev.canceled = false
	s.free = append(s.free, ev)
}

// noteDepth updates the shard's depth high-water mark after a push (or
// an inline sleep that stands in for one).
func (s *shard) noteDepth(n int) {
	if n > s.maxDepth {
		s.maxDepth = n
	}
}

// loopAction is how one invocation of an event loop (Engine.drive, the
// global serial loop; shard.runLoop, one shard's window) ended.
type loopAction int

const (
	// loopDone: nothing is left for this loop (the run or step quota is
	// over; the window is exhausted) and the calling goroutine is its
	// last owner.
	loopDone loopAction = iota
	// loopHanded: control of the loop was handed to another goroutine;
	// the caller must not touch engine, shard or event state again.
	loopHanded
	// loopSelf: the next event is the calling process's own wake; it
	// resumes inline without a goroutine switch.
	loopSelf
)

// runLoop advances the shard's event loop until the window is
// exhausted, control is handed to a dispatched process, or (when self
// is non-nil) the next event is self's own wake. It runs on whichever
// goroutine currently owns the shard: a window chain starts it (see
// Engine.runChain), and every parking or exiting process continues it
// — the window-bounded, per-shard form of Engine.drive's protocol: one
// goroutine switch per cross-process dispatch (see handoff), callback
// events inline on the owning goroutine with none. After a handoff the
// previous owner touches no shard state (the fired event is recycled
// before the resume send), so the invariant "one goroutine owns the
// shard" holds even with parallel workers. The caller must have set s.horizon; whoever gets
// loopDone owns the shard's completion (Engine.shardDone).
func (s *shard) runLoop(self *Proc) loopAction {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if ev.when >= s.horizon {
			break
		}
		s.queue.popMin()
		if ev.canceled {
			s.recycle(ev)
			continue
		}
		s.now = ev.when
		switch {
		case ev.proc != nil:
			q, t := ev.proc, ev.when
			s.fired++
			s.recycle(ev)
			return handoff(q, self, t)
		case ev.procs != nil:
			// Group wakes exist only in serial mode (wakeAll fans out
			// per-waiter whenever the windowed executor is configured).
			panic("sim: group wake event on a windowed shard")
		case ev.pfn != nil:
			s.fired++
			ev.pfn(ev.when, ev.parg)
			s.recycle(ev)
		default:
			s.fired++
			ev.fn()
			s.recycle(ev)
		}
	}
	return loopDone
}

// reset returns the shard to its just-constructed state, draining the
// queue and inbox into the free list and zeroing clocks, counters, and
// tallies. Free lists and slabs are retained.
func (s *shard) reset() {
	for len(s.queue) > 0 {
		s.recycle(s.queue.popMin())
	}
	for i, ev := range s.inbox {
		s.recycle(ev)
		s.inbox[i] = nil
	}
	s.inbox = s.inbox[:0]
	s.seq = 0
	s.procSeq = 0
	s.now = 0
	s.pos = -1
	s.active = false
	s.horizon = 0
	s.committed = 0
	s.indirty = false
	s.fired = 0
	s.sleeps = 0
	s.spawns = 0
	s.exits = 0
	s.maxDepth = 0
}

// headEntry is one slot of the engine's min-merge heap: a copy of a
// shard's earliest event key plus the shard itself. Keys are copied
// into the entry (rather than followed through the shard's queue) so
// sift comparisons touch sequential memory instead of chasing event
// pointers — at 131072 shards the merge heap is the hottest comparison
// loop in the serial engine.
type headEntry struct {
	when Time
	src  int32
	seq  uint64
	s    *shard
}

func headBefore(a, b *headEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// headsSift seats ent at slot i of the merge heap, sifting in whichever
// direction its key requires.
func (e *Engine) headsSift(i int, ent headEntry) {
	h := e.heads
	for i > 0 {
		parent := (i - 1) / 2
		if !headBefore(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].s.pos = int32(i)
		i = parent
	}
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && headBefore(&h[r], &h[child]) {
			child = r
		}
		if !headBefore(&h[child], &ent) {
			break
		}
		h[i] = h[child]
		h[i].s.pos = int32(i)
		i = child
	}
	h[i] = ent
	ent.s.pos = int32(i)
}

// headsKey re-keys shard s's slot (appended by the caller when s is
// new to the heap) from its head event; s's queue must be non-empty.
func (e *Engine) headsKey(s *shard, i int) {
	head := s.queue[0]
	e.headsSift(i, headEntry{when: head.when, src: head.src, seq: head.seq, s: s})
}

// headsInsert adds shard s (whose queue must be non-empty) to the
// merge heap keyed by its head event.
func (e *Engine) headsInsert(s *shard) {
	e.heads = append(e.heads, headEntry{})
	e.headsKey(s, len(e.heads)-1)
}

// headsFix re-keys shard s's entry after its head event changed. s
// must be in the heap and its queue non-empty.
func (e *Engine) headsFix(s *shard) { e.headsKey(s, int(s.pos)) }

// headsRemove takes shard s out of the merge heap, wherever it sits.
func (e *Engine) headsRemove(s *shard) {
	i, n := int(s.pos), len(e.heads)-1
	s.pos = -1
	last := e.heads[n]
	e.heads[n] = headEntry{}
	e.heads = e.heads[:n]
	if i < n {
		e.headsSift(i, last)
	}
}

// headsPopMin removes and returns the shard with the earliest head.
func (e *Engine) headsPopMin() *shard {
	s := e.heads[0].s
	e.headsRemove(s)
	return s
}

// onHeadChanged is called after a push into s's queue from a
// single-threaded context. If the shard sits in the merge heap its key
// may have decreased; if it is absent and not held out as active, it
// must be (re)inserted.
func (e *Engine) onHeadChanged(s *shard, ev *Event) {
	if s.active {
		return // re-keyed when its step or window completes
	}
	if s.pos < 0 {
		e.headsInsert(s)
		return
	}
	if s.queue[0] == ev {
		e.headsFix(s)
	}
}
