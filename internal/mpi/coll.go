package mpi

import (
	"fmt"

	"parastack/internal/sim"
	"parastack/internal/stack"
)

// CollKind identifies a collective operation.
type CollKind int

const (
	CollBarrier CollKind = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollGather
	CollAllgather
	CollScatter
	CollAlltoall
)

// collFrames holds each collective's MPI frame, classified once; the
// frame names double as the kinds' String values.
var collFrames = [...]stack.Frame{
	CollBarrier:   stack.Classify("MPI_Barrier"),
	CollBcast:     stack.Classify("MPI_Bcast"),
	CollReduce:    stack.Classify("MPI_Reduce"),
	CollAllreduce: stack.Classify("MPI_Allreduce"),
	CollGather:    stack.Classify("MPI_Gather"),
	CollAllgather: stack.Classify("MPI_Allgather"),
	CollScatter:   stack.Classify("MPI_Scatter"),
	CollAlltoall:  stack.Classify("MPI_Alltoall"),
}

// frame returns the MPI frame a call of kind k pushes.
func (k CollKind) frame() stack.Frame {
	if k >= 0 && int(k) < len(collFrames) {
		return collFrames[k]
	}
	return stack.Classify(k.String())
}

// String implements fmt.Stringer; values double as MPI frame names.
func (k CollKind) String() string {
	if k >= 0 && int(k) < len(collFrames) {
		return collFrames[k].Name
	}
	return fmt.Sprintf("CollKind(%d)", int(k))
}

// syncLike reports whether the collective acts as a synchronization
// across all members: no rank can complete before every rank has
// entered. The paper's Figure 6 distinguishes exactly this property
// (MPI_Allgather is synchronization-like, MPI_Gather is not).
func (k CollKind) syncLike() bool {
	switch k {
	case CollBarrier, CollAllreduce, CollAllgather, CollAlltoall:
		return true
	default:
		return false
	}
}

// collOp tracks one in-flight collective on one communicator, matched
// across members by call sequence number (MPI orders collectives by
// call order on the communicator). Indices are communicator ranks.
//
// The completion protocol is formulated so that every observable value
// is a function of per-member virtual entry times and keyed random
// draws alone — never of the order in which members are dispatched to
// the op. Members entering at the same virtual instant reach it in
// shard-stamp order; tracking the max entry time (and the root's entry
// time) makes the computed release instants identical no matter who
// happens to arrive "last", so release times depend on the program, not
// on how same-instant events are tie-broken.
type collOp struct {
	kind  CollKind
	root  int // communicator rank
	bytes int

	arrived   int
	maxEnter  sim.Time // max virtual entry time over arrived members
	seen      []bool
	waiters   []*sim.Proc // members suspended inside the op (pooled backing array)
	wranks    []int       // comm ranks of waiters (rooted ops' per-waiter draws)
	rootHere  bool
	rootEnter sim.Time  // root's virtual entry time (rooted ops)
	rootWait  *sim.Proc // root suspended waiting for all (Gather/Reduce)
	left      int       // members that have completed the op
}

// getCollOp pops a pooled collective op (or allocates one) reset for a
// fresh collective of the given shape. The seen slice's backing array
// is reused when large enough.
func (w *World) getCollOp(kind CollKind, root, bytes, size int) *collOp {
	n := len(w.freeOps)
	if n == 0 {
		return &collOp{kind: kind, root: root, bytes: bytes, seen: make([]bool, size)}
	}
	op := w.freeOps[n-1]
	w.freeOps[n-1] = nil
	w.freeOps = w.freeOps[:n-1]
	op.kind, op.root, op.bytes = kind, root, bytes
	op.arrived, op.left = 0, 0
	op.maxEnter, op.rootEnter = 0, 0
	op.rootHere, op.rootWait = false, nil
	op.wranks = op.wranks[:0]
	if cap(op.seen) >= size {
		op.seen = op.seen[:size]
		for i := range op.seen {
			op.seen[i] = false
		}
	} else {
		op.seen = make([]bool, size)
	}
	return op
}

// putCollOp returns a finished (or torn-down) op to the pool. An op
// abandoned mid-flight — a deadlocked or faulted collective reclaimed
// by World.Reset — may still hold a waiter list; its backing array goes
// back to the engine's slice pool so fault campaigns don't leak pooled
// slices.
func (w *World) putCollOp(op *collOp) {
	if op.waiters != nil {
		w.eng.PutProcSlice(op.waiters)
		op.waiters = nil
	}
	op.rootWait = nil
	w.freeOps = append(w.freeOps, op)
}

// collSalt keys collective latency draws apart from every other
// derivation of the engine seed (rank streams use rankStreamSalt).
const collSalt = 0x636c // "cl"

// collDraw returns the keyed one-shot uniform for a collective latency:
// a pure function of (engine seed, communicator, call sequence, salt),
// so the draw is identical no matter which member happens to evaluate
// it, or in which execution mode. Rooted collectives salt per waiter
// (comm rank + 1); the op-wide draws use salt 0.
func (c *Comm) collDraw(seq, salt uint64) sim.Fixed {
	return sim.Fixed(sim.UniformFrom(uint64(c.w.eng.Seed()), collSalt, uint64(c.id), seq, salt))
}

// collective runs one collective call for member r of communicator c.
// bytes is the per-rank payload size; root is a communicator rank. It
// blocks according to the collective's dependence structure and charges
// the latency model on completion. All internal waits are raw
// (penalty-free) absolute sleeps: tracing penalty is consumed only by
// program-order computation sleeps, an accounting that cannot depend on
// which member a wake happens to route through.
func (c *Comm) collective(r *Rank, kind CollKind, root, bytes int) {
	r.enterMPI(kind.frame())
	defer r.exitMPI()

	me := c.RankOf(r)
	w := c.w
	size := c.Size()
	now := r.proc.Now()

	seq := c.collSeq[r.ID()]
	c.collSeq[r.ID()]++
	op, ok := c.colls[seq]
	if !ok {
		op = w.getCollOp(kind, root, bytes, size)
		c.colls[seq] = op
	}
	if op.kind != kind || op.root != root {
		panic(fmt.Sprintf("mpi: collective mismatch at seq %d: rank %d called %s(root=%d), expected %s(root=%d)",
			seq, r.id, kind, root, op.kind, op.root))
	}
	if op.seen[me] {
		panic(fmt.Sprintf("mpi: rank %d entered collective seq %d twice", r.id, seq))
	}
	op.seen[me] = true
	op.arrived++
	if bytes > op.bytes {
		op.bytes = bytes
	}
	if now > op.maxEnter {
		op.maxEnter = now
	}

	if op.kind.syncLike() {
		if op.arrived == size {
			// Whole membership is in: the release instant is the latest
			// entry plus one keyed draw — the same value any member would
			// compute. This member fans out the wakes and waits to the
			// same instant itself.
			releaseAt := op.maxEnter + w.lat.collective(c.collDraw(seq, 0), kind, op.bytes, size)
			r.proc.WakeAllAt(releaseAt, op.waiters)
			op.waiters = nil // ownership passed to the engine
			r.proc.SleepUntil(releaseAt)
		} else {
			if op.waiters == nil {
				op.waiters = w.eng.GetProcSlice(size - 1)
			}
			op.waiters = append(op.waiters, r.proc)
			r.block = blockState{kind: BlockedCollective, seq: seq, comm: c, coll: kind}
			r.proc.Suspend()
			r.block = blockState{}
		}
		c.finish(seq, op)
		return
	}

	switch kind {
	case CollBcast, CollScatter:
		// Non-roots depend on the root; the root leaves immediately
		// after injecting its payload. A waiter's release instant is
		// max(its entry, the root's entry) plus its own keyed draw —
		// computed identically whether the waiter found the root already
		// present or is released by the root's fan-out below.
		if me == root {
			op.rootHere = true
			op.rootEnter = now
			for i, q := range op.waiters {
				at := q.Now() // waiter's entry time; frozen while it is parked
				if at < now {
					at = now
				}
				at += w.lat.collective(c.collDraw(seq, uint64(op.wranks[i])+1), kind, op.bytes, size)
				r.proc.WakePeerAt(q, at)
			}
			if op.waiters != nil {
				w.eng.PutProcSlice(op.waiters)
				op.waiters = nil
			}
			op.wranks = op.wranks[:0]
			r.proc.Sleep(w.lat.SendOverhead)
		} else if op.rootHere {
			at := now
			if at < op.rootEnter {
				at = op.rootEnter
			}
			at += w.lat.collective(c.collDraw(seq, uint64(me)+1), kind, op.bytes, size)
			r.proc.SleepUntil(at)
		} else {
			if op.waiters == nil {
				op.waiters = w.eng.GetProcSlice(size - 1)
			}
			op.waiters = append(op.waiters, r.proc)
			op.wranks = append(op.wranks, me)
			r.block = blockState{kind: BlockedCollective, seq: seq, comm: c, coll: kind}
			r.proc.Suspend()
			r.block = blockState{}
		}
	case CollGather, CollReduce:
		// The root depends on everyone; non-roots deposit and leave. The
		// root's release is the latest entry plus the op's keyed draw,
		// identical whether the root computes it directly (everyone was
		// in when it arrived) or the final depositor computes it for the
		// suspended root.
		if me == root {
			if op.arrived == size {
				at := op.maxEnter + w.lat.collective(c.collDraw(seq, 0), kind, op.bytes, size)
				r.proc.SleepUntil(at)
			} else {
				op.rootWait = r.proc
				r.block = blockState{kind: BlockedCollective, seq: seq, comm: c, coll: kind}
				r.proc.Suspend()
				r.block = blockState{}
			}
		} else {
			if op.rootWait != nil && op.arrived == size {
				at := op.maxEnter + w.lat.collective(c.collDraw(seq, 0), kind, op.bytes, size)
				r.proc.WakePeerAt(op.rootWait, at)
				op.rootWait = nil
			}
			r.proc.Sleep(w.lat.SendOverhead)
		}
	default:
		panic("mpi: unhandled collective kind " + kind.String())
	}

	c.finish(seq, op)
}

// finish records one member's exit from op; the last exit retires the
// op.
func (c *Comm) finish(seq uint64, op *collOp) {
	op.left++
	if op.left == c.Size() {
		delete(c.colls, seq)
		c.w.putCollOp(op)
	}
}

// World-communicator collectives (the plain MPI_COMM_WORLD calls).

// Barrier blocks until all ranks have entered it.
func (r *Rank) Barrier() { r.w.worldComm.collective(r, CollBarrier, 0, 0) }

// Bcast broadcasts bytes from root; non-roots block until the root has
// entered, the root returns promptly.
func (r *Rank) Bcast(root, bytes int) { r.w.worldComm.collective(r, CollBcast, root, bytes) }

// Reduce reduces bytes to root; the root blocks until all ranks have
// contributed, non-roots return promptly.
func (r *Rank) Reduce(root, bytes int) { r.w.worldComm.collective(r, CollReduce, root, bytes) }

// Allreduce is the synchronization-like reduction: nobody leaves before
// everybody has entered.
func (r *Rank) Allreduce(bytes int) { r.w.worldComm.collective(r, CollAllreduce, 0, bytes) }

// Gather gathers bytes to root (root waits for all, non-roots leave).
func (r *Rank) Gather(root, bytes int) { r.w.worldComm.collective(r, CollGather, root, bytes) }

// Allgather is the synchronization-like gather.
func (r *Rank) Allgather(bytes int) { r.w.worldComm.collective(r, CollAllgather, 0, bytes) }

// Scatter distributes from root (non-roots wait for the root).
func (r *Rank) Scatter(root, bytes int) { r.w.worldComm.collective(r, CollScatter, root, bytes) }

// Alltoall is the synchronization-like total exchange; its latency
// grows superlinearly with the per-rank payload (bisection pressure),
// which is what makes FT-style transposes occupy every rank IN_MPI for
// long stretches at large problem sizes.
func (r *Rank) Alltoall(bytes int) { r.w.worldComm.collective(r, CollAlltoall, 0, bytes) }

// orphanSeqBase is the reserved collective-sequence range for desynced
// (mismatched) collectives: ordinary per-rank call counters start at 0
// and can never reach it, so an orphan op is joinable by nobody and the
// victim blocks forever.
const orphanSeqBase = uint64(1) << 63

// DesyncCollective blocks the rank forever inside an orphan instance of
// the given collective on the world communicator — the simulated
// analogue of a collective mismatch, where one rank calls MPI_Barrier
// while the rest of the job calls MPI_Allreduce. The orphan op is
// registered under a reserved sequence number (orphanSeqBase + rank) no
// ordinary call sequence ever reaches, so no other rank can complete
// it: the victim parks IN_MPI inside its own collective while everyone
// else eventually blocks in a *different* collective on the same
// communicator — exactly the state BlockInfo's Comm/Seq fields and the
// wait-for classifier's collective-mismatch rule exist to expose. It is
// an injection primitive for package fault; real workloads never call
// it. It never returns.
func (r *Rank) DesyncCollective(kind CollKind) {
	c := r.w.worldComm
	r.enterMPI(kind.frame()) // never popped: the rank stays IN_MPI forever
	me := c.RankOf(r)
	seq := orphanSeqBase + uint64(r.id)
	op := r.w.getCollOp(kind, 0, 0, c.Size())
	c.colls[seq] = op
	op.seen[me] = true
	op.arrived++
	if op.waiters == nil {
		op.waiters = r.w.eng.GetProcSlice(c.Size() - 1)
	}
	op.waiters = append(op.waiters, r.proc)
	r.block = blockState{kind: BlockedCollective, seq: seq, comm: c, coll: kind}
	r.proc.Suspend()                          // never woken; World.Reset reclaims the op
	panic("mpi: desynced collective resumed") // unreachable unless a bug wakes it
}
