package sim

// wakeSeqBit marks an event sequence number as a canonical wake stamp:
// the event was created by a cross-shard wake, whose *waker* is an
// accident of dispatch order, so it is keyed by the woken process's
// shard-local id instead of by any waker's counter. The bit keeps
// canonical stamps disjoint from per-shard counter stamps, so the total
// order stays a function of the program.
const wakeSeqBit = uint64(1) << 63

// eventBefore is the queue's total order: earlier virtual time first,
// then originating shard, then the origin's sequence stamp. Within one
// shard the (src, seq) pair restores plain scheduling-order FIFO; for
// the single-shard programs of the test suite the order is therefore
// exactly the pre-sharding (when, seq) contract. The order is total and
// independent of heap layout, so the same program pops the same events
// in the same sequence however its runs are sliced.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
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
// callbacks); the MPI world gives each group of ranks its own shard, so
// a shard's queue holds only the events of one logical process group
// and stays a handful of entries deep regardless of world size.
//
// Each shard owns its sequence counter, because event stamps are
// (shard, counter) pairs, and its event free list and slab.
type shard struct {
	id  int32
	eng *Engine

	queue eventHeap
	seq   uint64 // counter stamp for events scheduled from this shard
	now   Time   // time of the shard's last dispatched event

	procSeq uint64 // shard-local process numbering (canonical wake stamps)

	free []*Event // recycled events
	slab []Event  // slab backing for new events (batch allocation)

	// Head-heap bookkeeping.
	pos    int32 // index in Engine.heads; -1 when absent
	active bool  // stepping: held out of heads maintenance under a stale key

	// Tallies folded into the recorder by Engine.syncObs.
	fired    uint64 // events fired
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

// loopAction is how one invocation of the event loop (Engine.drive)
// ended.
type loopAction int

const (
	// loopDone: the run is over and the calling goroutine (Run's) is the
	// loop's last owner.
	loopDone loopAction = iota
	// loopHanded: the loop was handed on — to the process recorded in
	// Engine.next, or at rest back to Run's goroutine when none is; a
	// calling process must yield without touching engine, shard or
	// event state again.
	loopHanded
	// loopSelf: the next event is the calling process's own wake; it
	// resumes inline without a switch.
	loopSelf
)

// reset returns the shard to its just-constructed state, draining the
// queue into the free list and zeroing clocks, counters, and tallies.
// Free lists and slabs are retained.
func (s *shard) reset() {
	for len(s.queue) > 0 {
		s.recycle(s.queue.popMin())
	}
	s.seq = 0
	s.procSeq = 0
	s.now = 0
	s.pos = -1
	s.active = false
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
// pointers — with hundreds of shards the merge heap is the hottest
// comparison loop in the engine.
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

// onHeadChanged is called after a push into s's queue. If the shard
// sits in the merge heap its key may have decreased; if it is absent
// and not held out as active, it must be (re)inserted.
func (e *Engine) onHeadChanged(s *shard, ev *Event) {
	if s.active {
		return // re-keyed when its step completes
	}
	if s.pos < 0 {
		e.headsInsert(s)
		return
	}
	if s.queue[0] == ev {
		e.headsFix(s)
	}
}
