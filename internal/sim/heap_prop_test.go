package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// takeNext takes the earliest pending event off e's queue, the way the
// event loop does: peek, then take, leaving the root slot taken.
func takeNext(e *Engine) *Event {
	ev := e.peek()
	if ev != nil {
		e.take()
	}
	return ev
}

// checkHeap requires the heap property of e's queue, a taken root
// exempt: every entry's key is its event's, and no child key precedes
// its parent's.
func checkHeap(t *testing.T, e *Engine, trial int) {
	t.Helper()
	q := e.queue
	for i := range q {
		if i == 0 && e.taken {
			continue
		}
		if ev := q[i].ev; ev.when != q[i].when || ev.src != q[i].src || ev.seq != q[i].seq {
			t.Fatalf("trial %d: queue[%d] key differs from its event's", trial, i)
		}
		if parent := (i - 1) / 2; i > 0 && !(parent == 0 && e.taken) && entryBefore(&q[i], &q[parent]) {
			t.Fatalf("trial %d: queue[%d] precedes its parent queue[%d]", trial, i, parent)
		}
	}
}

// TestEventHeapProperty drives the engine's queue with random
// interleavings of push, take, peek and Cancel, and checks every take
// and every peek against a reference model: the earliest (when, src)
// key among live events, FIFO among equals. Sequence stamps are
// assigned in push order per source shard, so the queue's full
// (when, src, seq) order must coincide with that reference — equal-key
// events must come out in push order, which is exactly the documented
// tie-break contract. A take leaves its root slot taken, so the draws
// cover take → push (the push reseats the root), take → peek (the peek
// removes it) and take → take. Times and sources are drawn from tiny
// ranges to force heavy tie collisions, and the heap property and the
// pending count are validated after every operation.
func TestEventHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var replaced, removed int
	for trial := 0; trial < 200; trial++ {
		e := NewEngine(1)
		var model []*Event  // live (non-canceled) events in push order
		pending := 0        // queued events, canceled ones included
		seqs := [3]uint64{} // per-source push counters

		// refNext returns the index of the model's expected next event.
		refNext := func() int {
			best := 0
			for i := 1; i < len(model); i++ {
				ev, b := model[i], model[best]
				if ev.when < b.when || (ev.when == b.when && ev.src < b.src) {
					best = i
				}
			}
			return best
		}
		// next skips canceled entries (as the event loop does) and
		// requires the first live event to match the model exactly; with
		// take it also takes that event.
		next := func(take bool) {
			t.Helper()
			var got *Event
			for {
				if e.taken {
					removed++
				}
				got = e.peek()
				if got == nil || !got.canceled {
					break
				}
				e.take()
				pending--
			}
			if got == nil {
				if len(model) != 0 {
					t.Fatalf("trial %d: queue empty with %d live events in model", trial, len(model))
				}
				return
			}
			i := refNext()
			if want := model[i]; got != want {
				t.Fatalf("trial %d: next = (when=%d src=%d seq=%d), want (when=%d src=%d seq=%d)",
					trial, got.when, got.src, got.seq, want.when, want.src, want.seq)
			}
			if take {
				e.take()
				pending--
				model = append(model[:i], model[i+1:]...)
			}
		}

		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				src := int32(rng.Intn(len(seqs)))
				ev := &Event{when: Time(rng.Intn(8)), src: src, seq: seqs[src]}
				seqs[src]++
				if e.taken {
					replaced++
				}
				e.push(ev)
				pending++
				model = append(model, ev)
			case r < 7:
				next(true)
			case r < 8:
				next(false)
			default: // cancel a random live event (lazy removal in the queue)
				if len(model) > 0 {
					i := rng.Intn(len(model))
					model[i].Cancel()
					model = append(model[:i], model[i+1:]...)
				}
			}
			checkHeap(t, e, trial)
			if got := e.PendingEvents(); got != pending {
				t.Fatalf("trial %d: PendingEvents = %d, want %d", trial, got, pending)
			}
		}
		for e.PendingEvents() > 0 || len(model) > 0 {
			next(true)
		}
	}
	if replaced == 0 || removed == 0 {
		t.Fatalf("the draws missed a path: %d pushes onto a taken root, %d peeks that removed one", replaced, removed)
	}
}

// TestEventHeapPopOrderTotal cross-checks full take order with no
// interleaving: push a colliding batch, then drain, and require the
// exact stable-sorted sequence — the strongest form of the equal-time
// FIFO tie-break.
func TestEventHeapPopOrderTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		e := NewEngine(1)
		n := 1 + rng.Intn(64)
		seqs := [3]uint64{}
		events := make([]*Event, 0, n)
		for i := 0; i < n; i++ {
			src := int32(rng.Intn(len(seqs)))
			ev := &Event{when: Time(rng.Intn(4)), src: src, seq: seqs[src]}
			seqs[src]++
			e.push(ev)
			events = append(events, ev)
		}
		want := append([]*Event(nil), events...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].src < want[j].src
		})
		for i, w := range want {
			got := takeNext(e)
			if got != w {
				t.Fatalf("trial %d: take %d = (when=%d src=%d seq=%d), want (when=%d src=%d seq=%d)",
					trial, i, got.when, got.src, got.seq, w.when, w.src, w.seq)
			}
		}
		if takeNext(e) != nil || e.PendingEvents() != 0 || len(e.queue) != 0 {
			t.Fatalf("trial %d: queue not drained", trial)
		}
	}
}
