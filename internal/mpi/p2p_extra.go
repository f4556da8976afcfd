package mpi

import "time"

// Ssend performs a synchronous-mode send: it does not complete until
// the matching receive has been posted and the message consumed —
// unlike the eager standard-mode Send. This is the call whose misuse
// creates classic head-to-head deadlocks, so it matters for hang
// studies: two ranks Ssend-ing to each other first block forever.
func (r *Rank) Ssend(dst, tag, bytes int) {
	r.enterMPI(frameSsend)
	defer r.exitMPI()
	// Model: deliver the payload, then wait for an acknowledgement the
	// receiver's matching engine sends when a receive consumes it.
	ackTag := ssendAckBase | tag
	r.startSend(dst, ssendDataBase|tag, bytes)
	q := r.postRecv(r.w.ranks[dst].id, ackTag)
	r.await(q)
	r.retire(q)
	r.release(q)
}

// SsendMatch is the receive counterpart used by ranks receiving from an
// Ssend: it consumes the data message and releases the sender.
func (r *Rank) SsendMatch(src, tag int) int {
	r.enterMPI(frameRecv)
	defer r.exitMPI()
	q := r.postRecv(src, ssendDataBase|tag)
	r.await(q)
	r.retire(q)
	r.startSend(src, ssendAckBase|tag, 0)
	got := q.msg.bytes
	r.release(q)
	return got
}

// Tag-space partitions for the synchronous-send protocol. User tags up
// to 2^24 stay clear of them.
const (
	ssendDataBase = 1 << 28
	ssendAckBase  = 1 << 29
)

// Probe blocks until a matching message is deliverable (MPI_Probe),
// without consuming it. The rank is IN_MPI while it waits.
func (r *Rank) Probe(src, tag int) {
	r.enterMPI(frameProbe)
	defer r.exitMPI()
	for {
		// Everything in the unexpected queue has arrived (delivery events
		// fire at arrival time), so a match is immediately probe-visible.
		for _, m := range r.unexpected[r.unexpectedHead:] {
			if m != nil && (src == AnySource || src == m.src) &&
				(tag == AnyTag || tag == m.tag) {
				return
			}
		}
		// Nothing queued: poll the progress engine. (A condition-based
		// wakeup would be cleaner but Probe is rare; polling at the
		// test-overhead granularity keeps the state machine simple.)
		r.proc.Sleep(10 * r.w.lat.TestOverhead)
	}
}

// Waitany blocks until at least one of the requests completes and
// returns its index (MPI_Waitany). It panics on an empty slice.
func (r *Rank) Waitany(qs []*Request) int {
	r.enterMPI(frameWaitany)
	defer r.exitMPI()
	if len(qs) == 0 {
		panic("mpi: Waitany on no requests")
	}
	for {
		for i, q := range qs {
			if q.done {
				if q.isRecv {
					r.retire(q)
				}
				return i
			}
		}
		// Park until any completion: register as waiter on all pending
		// requests; the first completion wakes us, then we deregister.
		for _, q := range qs {
			if q.waiter != nil && q.waiter != r.proc {
				panic("mpi: request already has a waiter")
			}
			q.waiter = r.proc
		}
		r.proc.Suspend()
		for _, q := range qs {
			if q.waiter == r.proc {
				q.waiter = nil
			}
		}
	}
}

// Barrierize is a convenience for tests: run fn then enter a barrier,
// bounding skew between phases.
func (r *Rank) Barrierize(fn func()) {
	fn()
	r.Barrier()
}

// WaitallTimeout waits for all requests but gives up after d, returning
// false if any request was still pending — a building block for
// user-level timeout recovery schemes (and for exercising half-blocking
// communication styles in tests).
func (r *Rank) WaitallTimeout(qs []*Request, d time.Duration) bool {
	deadline := r.proc.Now() + d
	for _, q := range qs {
		for !q.done {
			if r.proc.Now() >= deadline {
				return false
			}
			step := deadline - r.proc.Now()
			if step > 10*r.w.lat.TestOverhead {
				step = 10 * r.w.lat.TestOverhead
			}
			if !r.TestFor(q, step) && r.proc.Now() >= deadline {
				return false
			}
		}
		if q.isRecv {
			r.retire(q)
		}
	}
	return true
}
