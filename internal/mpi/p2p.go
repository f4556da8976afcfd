package mpi

import (
	"fmt"
	"time"

	"parastack/internal/sim"
)

// Request is a non-blocking communication handle, as returned by Isend
// and Irecv and consumed by Wait / Test.
type Request struct {
	rank *Rank

	isRecv   bool
	src, tag int // matching criteria for receives

	done   bool
	msg    *message
	waiter *sim.Proc // proc blocked in Wait on this request
}

// Done reports whether the request has completed. Unlike Test, it does
// not model the cost or the stack footprint of an MPI_Test call; it is
// for assertions and observers.
func (q *Request) Done() bool { return q.done }

// complete marks the request done at virtual time t and wakes a waiter
// if one is parked in Wait. It always runs on the owning rank's shard
// (the completion event is posted there), so the wake is shard-local.
func (q *Request) complete(t sim.Time) {
	if q.done {
		panic("mpi: request completed twice")
	}
	q.done = true
	if q.waiter != nil {
		p := q.waiter
		q.waiter = nil
		// A Waitany waiter is registered on several requests; a sibling
		// completion at the same instant may already have woken it.
		if p.State() == sim.ProcSuspended {
			p.WakeAtLocal(t)
		}
	}
}

// Send performs a blocking standard-mode send. The simulation uses
// eager semantics: the message is buffered and the call returns after
// the sender-side overhead, independent of whether a receive is posted
// (this matches small/medium messages in real MPI implementations, and
// is the style the NPB-like workloads use).
func (r *Rank) Send(dst, tag, bytes int) {
	r.enterMPI(frameSend)
	defer r.exitMPI()
	r.startSend(dst, tag, bytes)
	r.proc.Sleep(r.w.lat.SendOverhead)
}

// Isend starts a non-blocking send and returns its request. Eager
// buffering means the request is immediately completable; Wait/Test on
// it still model their call cost.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	r.enterMPI(frameIsend)
	defer r.exitMPI()
	r.startSend(dst, tag, bytes)
	// Isend handles escape to user code indefinitely, so they never
	// come from (or return to) the request pool.
	return &Request{rank: r, done: true}
}

// startSend draws the wire latency from the sender's private stream,
// clamps the arrival monotone per destination (MPI's non-overtaking
// rule: jitter must not reorder two same-pair messages in flight), and
// posts a delivery event to the destination rank's shard at the arrival
// time. Matching happens at arrival, on the receiver's shard — the
// cross-rank interaction is one timestamped event at now + p2p latency,
// stamped by the sender's shard, so its place in the event order is a
// function of the sender's program alone.
func (r *Rank) startSend(dst, tag, bytes int) {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	m := r.getMsg()
	m.src = r.id
	m.dst = dst
	m.tag = tag
	m.bytes = bytes
	m.arriveAt = r.clampArrival(dst, r.proc.Now()+r.w.lat.p2p(&r.rng, bytes))
	r.msgSeq++
	r.proc.Post(r.w.ranks[dst].proc, m.arriveAt, r.w.deliverFn, m)
}

// deliverMsg is the shared delivery-event callback (see World.deliverFn):
// it fires on the destination rank's shard at the message's arrival
// time.
func (w *World) deliverMsg(t sim.Time, arg any) {
	m := arg.(*message)
	w.ranks[m.dst].deliverArrived(t, m)
}

// deliverArrived matches an arrived message against the rank's posted
// receives (in post order), or queues it as unexpected.
func (dst *Rank) deliverArrived(t sim.Time, m *message) {
	for _, q := range dst.posted[dst.postedHead:] {
		if q != nil && q.msg == nil && q.matches(m) {
			q.attach(t, m)
			return
		}
	}
	dst.unexpected = append(dst.unexpected, m)
}

// matches reports whether a posted receive accepts a message.
func (q *Request) matches(m *message) bool {
	return (q.src == AnySource || q.src == m.src) &&
		(q.tag == AnyTag || q.tag == m.tag)
}

// attach binds a message to a receive request and schedules completion
// at the message's arrival time plus receive overhead (or now, if the
// receive was posted after that instant passed). Both call sites — the
// delivery event and the rank's own postRecv — execute on the owning
// rank's shard, so the completion event is shard-local.
func (q *Request) attach(now sim.Time, m *message) {
	q.msg = m
	r := q.rank
	at := m.arriveAt + r.w.lat.RecvOverhead
	if at < now {
		at = now
	}
	r.proc.Post(r.proc, at, r.w.completeFn, q)
}

// completeReq is the shared completion-event callback (see
// World.completeFn).
func (w *World) completeReq(t sim.Time, arg any) {
	arg.(*Request).complete(t)
}

// Irecv posts a non-blocking receive for (src, tag); use AnySource /
// AnyTag as wildcards. Matching follows MPI rules: posted receives
// match in post order; unexpected messages are consumed in delivery
// order per matching criteria.
func (r *Rank) Irecv(src, tag int) *Request {
	r.enterMPI(frameIrecv)
	defer r.exitMPI()
	return r.postRecv(src, tag)
}

func (r *Rank) postRecv(src, tag int) *Request {
	q := r.getReq()
	q.rank = r
	q.isRecv = true
	q.src = src
	q.tag = tag
	// First try the unexpected queue.
	for i := r.unexpectedHead; i < len(r.unexpected); i++ {
		m := r.unexpected[i]
		if m != nil && q.matches(m) {
			r.consumeUnexpected(i)
			q.attach(r.proc.Now(), m)
			r.posted = append(r.posted, q)
			return q
		}
	}
	r.posted = append(r.posted, q)
	return q
}

// consumeUnexpected removes the message at index i from the unexpected
// queue, leaving a hole (or advancing the head) instead of shifting the
// tail down, so heavy unexpected traffic stays O(1) amortized.
func (r *Rank) consumeUnexpected(i int) {
	r.unexpected[i] = nil
	if i == r.unexpectedHead {
		r.unexpectedHead++
		for r.unexpectedHead < len(r.unexpected) && r.unexpected[r.unexpectedHead] == nil {
			r.unexpectedHead++
			r.unexpectedHoles--
		}
	} else {
		r.unexpectedHoles++
	}
	if r.unexpectedHead == len(r.unexpected) {
		// Queue fully drained: rewind to reuse the backing array.
		r.unexpected = r.unexpected[:0]
		r.unexpectedHead, r.unexpectedHoles = 0, 0
	} else if dead := r.unexpectedHead + r.unexpectedHoles; dead > compactMin && dead > len(r.unexpected)-dead {
		r.unexpected = compact(r.unexpected, r.unexpectedHead)
		r.unexpectedHead, r.unexpectedHoles = 0, 0
	}
}

// compactMin is the dead-entry threshold below which queues are left
// alone: tiny queues recycle their slots naturally via the head index
// reaching the end (see the len==head fast reset in retire).
const compactMin = 32

// compact slides the live entries of a holey queue down to the front of
// its backing array, nil-ing the vacated tail so pooled objects are not
// pinned. It works for any pointer-element queue.
func compact[T any](q []*T, head int) []*T {
	live := q[:0]
	for _, e := range q[head:] {
		if e != nil {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(q); i++ {
		q[i] = nil
	}
	return live
}

// retire removes a completed request from the posted list. Retiring the
// oldest posted receive — the overwhelmingly common case in FIFO
// workloads — is O(1): the head index advances over it rather than the
// tail shifting down. Out-of-order retires leave holes that are swept
// once they dominate the queue.
func (r *Rank) retire(q *Request) {
	for i := r.postedHead; i < len(r.posted); i++ {
		if r.posted[i] != q {
			continue
		}
		r.posted[i] = nil
		if i == r.postedHead {
			r.postedHead++
			for r.postedHead < len(r.posted) && r.posted[r.postedHead] == nil {
				r.postedHead++
				r.postedHoles--
			}
		} else {
			r.postedHoles++
		}
		if r.postedHead == len(r.posted) {
			// Queue fully drained: rewind to reuse the backing array.
			r.posted = r.posted[:0]
			r.postedHead, r.postedHoles = 0, 0
		} else if dead := r.postedHead + r.postedHoles; dead > compactMin && dead > len(r.posted)-dead {
			r.posted = compact(r.posted, r.postedHead)
			r.postedHead, r.postedHoles = 0, 0
		}
		return
	}
}

// release returns a retired, completed request — and its attached
// message — to the rank's pools. Only the internal blocking paths
// (Recv, SendRecv, Ssend) call it: their requests never escape to user
// code, so no stale handle can observe the reuse. Requests returned by
// Irecv/Isend are never released.
func (r *Rank) release(q *Request) {
	if q.msg != nil {
		r.putMsg(q.msg)
	}
	r.putReq(q)
}

// Recv performs a blocking receive, returning the payload size of the
// matched message. The rank stays IN_MPI (inside an MPI_Recv frame)
// until the message arrives.
func (r *Rank) Recv(src, tag int) int {
	r.enterMPI(frameRecv)
	defer r.exitMPI()
	q := r.postRecv(src, tag)
	r.await(q)
	r.retire(q)
	bytes := q.msg.bytes
	r.release(q)
	return bytes
}

// Wait blocks until the request completes (MPI_Wait).
func (r *Rank) Wait(q *Request) {
	r.enterMPI(frameWait)
	defer r.exitMPI()
	r.await(q)
	if q.isRecv {
		r.retire(q)
	}
}

// Waitall waits for every request in order.
func (r *Rank) Waitall(qs []*Request) {
	r.enterMPI(frameWaitall)
	defer r.exitMPI()
	for _, q := range qs {
		r.await(q)
		if q.isRecv {
			r.retire(q)
		}
	}
}

// await parks the rank until q completes. Must run inside an MPI frame.
func (r *Rank) await(q *Request) {
	if q.rank != r {
		panic("mpi: waiting on another rank's request")
	}
	if !q.done {
		q.waiter = r.proc
		if q.isRecv {
			r.block = blockState{kind: BlockedRecv, req: q}
		}
		r.proc.Suspend()
		r.block = blockState{}
	}
}

// Test models MPI_Test: a cheap, non-blocking completion check that
// momentarily puts the rank IN_MPI (the busy-wait pattern the paper
// calls the third communication style). It retires completed receives.
func (r *Rank) Test(q *Request) bool {
	r.enterMPI(frameTest)
	defer r.exitMPI()
	r.proc.Sleep(r.w.lat.TestOverhead)
	if q.done && q.isRecv {
		r.retire(q)
	}
	return q.done
}

// TestFor models a dense polling slice: the rank repeatedly calls
// MPI_Test back-to-back for up to the given duration (one MPI_Test
// frame covering the slice, since the loop spends nearly all its time
// inside the library) and reports whether the request completed. This
// is the cheap way to simulate HPL-style busy-wait loops whose duty
// cycle is dominated by the progress engine, without one simulation
// event per poll iteration.
func (r *Rank) TestFor(q *Request, slice time.Duration) bool {
	r.enterMPI(frameTest)
	defer r.exitMPI()
	if q.done {
		if q.isRecv {
			r.retire(q)
		}
		return true
	}
	r.proc.Sleep(slice)
	if q.done && q.isRecv {
		r.retire(q)
	}
	return q.done
}

// Iprobe models MPI_Iprobe: check for a matching deliverable message
// without consuming it. The unexpected queue holds only messages whose
// delivery event has fired, so everything in it has already arrived,
// as in a real progress engine.
func (r *Rank) Iprobe(src, tag int) bool {
	r.enterMPI(frameIprobe)
	defer r.exitMPI()
	r.proc.Sleep(r.w.lat.TestOverhead)
	for _, m := range r.unexpected[r.unexpectedHead:] {
		if m != nil &&
			(src == AnySource || src == m.src) &&
			(tag == AnyTag || tag == m.tag) {
			return true
		}
	}
	return false
}

// SendRecv exchanges messages with two peers in one call (the halo
// pattern): send to dst and receive from src, overlapping the two.
func (r *Rank) SendRecv(dst, sendTag, bytes, src, recvTag int) int {
	r.enterMPI(frameSendrecv)
	defer r.exitMPI()
	q := r.postRecv(src, recvTag)
	r.startSend(dst, sendTag, bytes)
	r.proc.Sleep(r.w.lat.SendOverhead)
	r.await(q)
	r.retire(q)
	got := q.msg.bytes
	r.release(q)
	return got
}
