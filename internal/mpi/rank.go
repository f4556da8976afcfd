package mpi

import (
	"slices"
	"time"

	"parastack/internal/sim"
	"parastack/internal/stack"
)

// Rank is one simulated MPI process. All communication methods must be
// called from the rank's own body (the function passed to Launch);
// observer methods (Stack, Proc, InMPI) may be called from anywhere in
// the simulation, e.g. by a monitor process.
type Rank struct {
	w     *World
	id    int
	name  string // cached "rank-N" spawn name, reused across World.Reset
	proc  *sim.Proc
	stack *stack.Stack

	// posted holds receive requests in post order. Retired requests
	// leave nil holes (compacted once they dominate) and postedHead
	// skips the retired prefix, so FIFO matching stays O(live) and
	// retiring the oldest receive — the common case — is O(1) instead
	// of shifting the whole queue. unexpected works the same way.
	posted      []*Request
	postedHead  int
	postedHoles int // nil entries at or after postedHead

	unexpected      []*message // delivered but unmatched messages, in delivery order
	unexpectedHead  int
	unexpectedHoles int

	msgSeq uint64 // per-rank send sequence, for deterministic tie-breaks

	// lastArrive clamps per-destination arrival times monotone so jitter
	// cannot reorder two same-pair messages in flight (MPI's
	// non-overtaking rule). It holds one entry per destination, sorted
	// by dst and found by binary search: halo patterns touch a handful
	// of peers, and a rank that sends to every other still pays only
	// O(log peers) per send.
	lastArrive []arrival

	// rng is the rank's private random stream, seeded from
	// (engine seed, rank id) at Launch. Drawing per-rank rather than
	// from the engine's global stream makes every draw a function of the
	// rank's own program order — independent of how rank executions
	// interleave, so latencies follow from the program rather than
	// from the dispatch order of other ranks.
	rng sim.Rng

	// Per-rank object pools (see World.Reset for reclamation). Messages
	// are allocated by the sender and released by the receiver, so pool
	// populations drift between ranks but never leak; requests stay with
	// their owner.
	freeMsgs []*message
	freeReqs []*Request

	block blockState // what the rank last suspended on (see introspect.go)

	threads []*Thread // live worker threads of the current parallel region

	hung bool // set by HangForever; the rank never runs again
}

// arrival is the latest arrival time a rank has stamped on a message
// to dst.
type arrival struct {
	dst int
	at  sim.Time
}

// clampArrival returns at raised to the latest arrival already stamped
// on a message to dst, and records the result as that latest arrival.
func (r *Rank) clampArrival(dst int, at sim.Time) sim.Time {
	a := r.lastArrive
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m].dst < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(a) && a[lo].dst == dst {
		if at < a[lo].at {
			at = a[lo].at
		}
		a[lo].at = at
		return at
	}
	r.lastArrive = slices.Insert(a, lo, arrival{dst: dst, at: at})
	return at
}

// message is a point-to-point message in flight or queued.
type message struct {
	src, dst, tag int
	bytes         int
	arriveAt      sim.Time
}

// getMsg pops a pooled message (fields are fully overwritten by the
// caller) or allocates one.
func (r *Rank) getMsg() *message {
	if n := len(r.freeMsgs); n > 0 {
		m := r.freeMsgs[n-1]
		r.freeMsgs[n-1] = nil
		r.freeMsgs = r.freeMsgs[:n-1]
		return m
	}
	return &message{}
}

// putMsg returns a consumed message to this rank's pool.
func (r *Rank) putMsg(m *message) { r.freeMsgs = append(r.freeMsgs, m) }

// getReq pops a pooled request or allocates one.
func (r *Rank) getReq() *Request {
	if n := len(r.freeReqs); n > 0 {
		q := r.freeReqs[n-1]
		r.freeReqs[n-1] = nil
		r.freeReqs = r.freeReqs[:n-1]
		return q
	}
	return &Request{}
}

// putReq returns a request to the rank's pool. The caller guarantees no
// outside handle to it survives (see Rank.release).
func (r *Rank) putReq(q *Request) {
	q.rank = nil
	q.isRecv = false
	q.src, q.tag = 0, 0
	q.done = false
	q.msg = nil
	q.waiter = nil
	r.freeReqs = append(r.freeReqs, q)
}

// Rand returns the rank's private deterministic random stream. Workload
// and noise code must draw per-rank randomness from it (never from
// Engine.Rand) so results do not depend on rank interleaving.
func (r *Rank) Rand() *sim.Rng { return &r.rng }

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// World returns the world the rank belongs to.
func (r *Rank) World() *World { return r.w }

// Proc returns the simulated process backing the rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Stack returns the rank's simulated call stack. Observers may read it;
// only the rank itself mutates it.
func (r *Rank) Stack() *stack.Stack { return r.stack }

// InMPI reports whether the rank is currently inside an MPI call.
func (r *Rank) InMPI() bool { return r.stack.State() == stack.InMPI }

// Hung reports whether HangForever was called on this rank.
func (r *Rank) Hung() bool { return r.hung }

// Now returns current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute advances the rank through d of application computation,
// applying the world's perturbation hook (platform noise, injected
// slowdowns). The rank's stack is left untouched: whatever user frames
// the workload pushed remain visible, so the rank samples as OUT_MPI.
func (r *Rank) Compute(d time.Duration) {
	if r.w.Perturb != nil {
		d = r.w.Perturb(r, d)
	}
	r.proc.Sleep(d)
}

// Call pushes a user stack frame named name, runs fn, and pops the
// frame. Workloads use it to give their phases recognizable stacks.
func (r *Rank) Call(name string, fn func()) {
	r.stack.Push(name)
	defer r.stack.Pop()
	fn()
}

// HangForever parks the rank permanently, simulating a computation
// error (infinite loop, stuck IO, node freeze) at the current stack
// position. The rank never resumes; its stack stays frozen exactly as
// the paper's faulty process would appear to a stack sampler.
func (r *Rank) HangForever() {
	r.hung = true
	r.block = blockState{}
	r.proc.Suspend()                // never woken
	panic("mpi: hung rank resumed") // unreachable unless a bug wakes it
}

// Spin models one iteration of a user-level busy-wait loop body: a tiny
// slice of application code between request tests. It is ordinary
// computation — the rank is OUT_MPI while spinning.
func (r *Rank) Spin(d time.Duration) { r.Compute(d) }

// The frames of the MPI functions the simulated library enters,
// classified once here so an MPI call pushes its frame without any
// string work (collectives use collFrames).
var (
	frameSend     = stack.Classify("MPI_Send")
	frameIsend    = stack.Classify("MPI_Isend")
	frameSsend    = stack.Classify("MPI_Ssend")
	frameRecv     = stack.Classify("MPI_Recv")
	frameIrecv    = stack.Classify("MPI_Irecv")
	frameSendrecv = stack.Classify("MPI_Sendrecv")
	frameWait     = stack.Classify("MPI_Wait")
	frameWaitall  = stack.Classify("MPI_Waitall")
	frameWaitany  = stack.Classify("MPI_Waitany")
	frameTest     = stack.Classify("MPI_Test")
	frameIprobe   = stack.Classify("MPI_Iprobe")
	frameProbe    = stack.Classify("MPI_Probe")
)

// enterMPI pushes an MPI frame; exitMPI pops it. They are separate
// calls (rather than enterMPI returning a pop func) so the per-call
// `defer r.exitMPI()` stays an open-coded defer with no method-value
// allocation — one heap object per MPI call otherwise, the single
// largest allocation source in large campaigns.
func (r *Rank) enterMPI(f stack.Frame) { r.stack.PushFrame(f) }

// exitMPI pops the frame pushed by the matching enterMPI.
func (r *Rank) exitMPI() { r.stack.Pop() }
