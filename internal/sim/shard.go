package sim

import "parastack/internal/obs"

// wakeSeqBit marks an event sequence number as a canonical wake stamp:
// the event was created by a cross-shard wake, whose *waker* is an
// accident of dispatch order, so it is keyed by the woken process's
// shard-local id instead of by any waker's counter. The bit keeps
// canonical stamps disjoint from per-shard counter stamps, so the total
// order stays a function of the program.
const wakeSeqBit = uint64(1) << 63

// shard is a stamp namespace of the engine. Shard 0 is the system shard
// (monitor, detectors, watchdogs, chaos, test and setup callbacks); the
// MPI world gives each group of ranks its own shard. A shard owns the
// counter that stamps the events scheduled from it and the shard-local
// process numbering behind canonical wake stamps; every event sits in
// the engine's one queue, keyed (when, src, seq).
type shard struct {
	id      int32
	seq     uint64 // counter stamp for events scheduled from this shard
	now     Time   // time of the last event dispatched on this shard
	procSeq uint64 // shard-local process numbering (canonical wake stamps)
}

// stamp returns the shard's next counter stamp.
func (s *shard) stamp() uint64 {
	s.seq++
	return s.seq - 1
}

// queueEntry is one slot of the engine's event heap: a copy of the
// event's key plus the event itself. Keys are copied into the entry
// (rather than followed through the event pointer) so sift comparisons
// touch sequential memory instead of chasing pointers.
type queueEntry struct {
	when Time
	src  int32
	seq  uint64
	ev   *Event
}

// entryBefore is the queue's total order: earlier virtual time first,
// then originating shard, then the origin's sequence stamp. Within one
// shard the (src, seq) pair restores plain scheduling-order FIFO; for
// the single-shard programs of the test suite the order is therefore
// exactly the pre-sharding (when, seq) contract. The order is total and
// independent of heap layout, so the same program takes the same events
// in the same sequence however its runs are sliced.
func entryBefore(a, b *queueEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// push inserts ev into the queue. A taken root (see take) is reseated
// with ev by one sift down; otherwise ev is sifted up from a new last
// slot, parents moving down into the hole, and depth bookkeeping
// records a structured queue_depth event each time the maximum roughly
// doubles.
func (e *Engine) push(ev *Event) {
	ent := queueEntry{when: ev.when, src: ev.src, seq: ev.seq, ev: ev}
	if e.taken {
		e.taken = false
		e.siftDown(ent)
		return
	}
	q := append(e.queue, ent)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore(&ent, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
	e.queue = q
	if n := len(q); n > e.maxDepth {
		e.maxDepth = n
		if e.rec.Enabled() && n >= 2*e.depthEvented {
			e.depthEvented = n
			e.rec.Event(e.now, EvQueueDepth, obs.Int("depth", int64(n)))
		}
	}
}

// siftDown seats ent at the root, sifting it down to its place.
func (e *Engine) siftDown(ent queueEntry) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && entryBefore(&q[r], &q[child]) {
			child = r
		}
		if !entryBefore(&q[child], &ent) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = ent
}

// peek returns the earliest pending event, or nil when none is. A taken
// root is removed first: the last entry is reseated by one sift down.
func (e *Engine) peek() *Event {
	if e.taken {
		e.taken = false
		n := len(e.queue) - 1
		last := e.queue[n]
		e.queue[n] = queueEntry{}
		e.queue = e.queue[:n]
		if n > 0 {
			e.siftDown(last)
		}
	}
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0].ev
}

// take removes the event peek returned. Its root slot stays in place,
// taken: a dispatched event usually schedules its successor (a sleep, a
// delivery) before the next peek, and that push reseats the root with
// the one sift an event costs; a peek that comes first removes it.
func (e *Engine) take() { e.taken = true }

// alloc takes an event from the engine's free list, cutting a fresh one
// from the slab when the list is empty. Slab allocation keeps the
// startup cost of large worlds at ~1 allocation per 64 events instead
// of one each.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]Event, 64)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// recycle resets a fired or drained event and returns it to the free
// list. There is one pool, so an event comes back to the list it was
// taken from, whichever shards stamped and ran it, and a steady cycle
// of runs holds the pool at a fixed size. A group-wake event's waiter
// slice returns to the engine's proc-slice pool here.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.pfn = nil
	ev.parg = nil
	ev.proc = nil
	if ev.procs != nil {
		e.PutProcSlice(ev.procs)
		ev.procs = nil
	}
	ev.canceled = false
	e.free = append(e.free, ev)
}

// loopAction is how one invocation of the event loop (Engine.drive)
// ended.
type loopAction int

const (
	// loopDone: the run is over and the calling goroutine (Run's) is the
	// loop's last owner.
	loopDone loopAction = iota
	// loopHanded: the loop was handed on — to the process recorded in
	// Engine.next, or at rest back to Run's goroutine when none is; a
	// calling process must switch to it (Engine.successor) without
	// touching engine, shard or event state again.
	loopHanded
	// loopSelf: the next event is the calling process's own wake; it
	// resumes inline without a switch.
	loopSelf
)
