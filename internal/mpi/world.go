// Package mpi implements a simulated MPI-1 runtime on top of the
// discrete-event engine in internal/sim.
//
// Each MPI rank is a simulated process (goroutine) with a simulated
// call stack (internal/stack). The runtime reproduces the semantics
// that matter to hang detection: blocking point-to-point operations
// with FIFO matching per (source, tag), non-blocking requests completed
// by a progress engine, synchronization-like collectives (Barrier,
// Allreduce, Allgather, Alltoall) where no rank can leave before all
// have entered, and rooted collectives (Bcast, Reduce, Gather, Scatter)
// with their weaker dependence structure. Every MPI call pushes an
// "MPI_*" frame onto the rank's stack for the duration of the call, so
// an external observer sees exactly the IN_MPI / OUT_MPI behaviour the
// paper's stack-trace sampling sees.
//
// Message and collective timing comes from a configurable latency
// model; all timing is virtual, deterministic, and jittered from the
// engine's seeded random source.
package mpi

import (
	"fmt"
	"time"

	"parastack/internal/sim"
	"parastack/internal/stack"
)

// Wildcards for Recv/Iprobe matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is a simulated MPI job: a fixed set of ranks sharing one
// engine, one latency model, and one collective-matching space
// (the equivalent of MPI_COMM_WORLD).
type World struct {
	eng   *sim.Engine
	ranks []*Rank
	lat   Latency

	worldComm *Comm
	derived   []*Comm // per-run split communicators, reclaimed by Reset

	// Perturb, when non-nil, rescales every computation interval of
	// every rank; platform noise models hook in here.
	Perturb func(r *Rank, d time.Duration) time.Duration

	started    bool
	finished   int      // ranks whose bodies have returned
	finishedAt sim.Time // max completion virtual time, valid once Done

	// deliverFn/completeFn cache the method values passed to
	// sim.Proc.Post so delivery and completion events carry a shared
	// function pointer instead of a fresh closure per message.
	deliverFn  func(sim.Time, any)
	completeFn func(sim.Time, any)

	// Pooled collective ops, shared across communicators.
	freeOps []*collOp

	// group is the number of consecutive ranks homed on one engine
	// shard (see shardGroupSize). It is part of the world's identity:
	// event stamps carry shard ids, so the grouping is part of the event
	// order.
	group int
}

// maxRankShards bounds the number of rank shards a world creates.
// Below it every rank gets its own shard; above it consecutive ranks
// share shards, which keeps the engine's shard merge heap small. The
// shard ids it produces stamp every rank event, so changing the bound
// changes how same-instant events of large worlds are tie-broken.
const maxRankShards = 256

// shardGroupSize returns the ranks-per-shard grouping for a world of
// the given size: 1 until maxRankShards, then the smallest group that
// keeps the shard count at maxRankShards.
func shardGroupSize(size int) int {
	g := (size + maxRankShards - 1) / maxRankShards
	if g < 1 {
		g = 1
	}
	return g
}

// NewWorld creates a world of size ranks on eng with latency model lat.
// Ranks are created immediately but their bodies start only at Launch.
func NewWorld(eng *sim.Engine, size int, lat Latency) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		eng:   eng,
		lat:   lat.WithDefaults(),
		group: shardGroupSize(size),
	}
	w.deliverFn = w.deliverMsg
	w.completeFn = w.completeReq
	w.ranks = make([]*Rank, size)
	all := make([]int, size)
	for i := 0; i < size; i++ {
		w.ranks[i] = &Rank{
			w:     w,
			id:    i,
			name:  fmt.Sprintf("rank-%d", i),
			stack: stack.New("main"),
		}
		all[i] = i
	}
	w.worldComm = newComm(w, all)
	return w
}

// Reset returns the world to its just-constructed state for a fresh run
// on the same (Reset) engine, with a possibly different latency model.
// Rank structs, stacks, queue backing arrays, communicator tables, and
// the message/request/collective pools are all retained, so a reused
// world allocates almost nothing per run. Messages and blocking-path
// requests still sitting in rank queues — a hung run's leftovers,
// including the fault injector's dead receives — return to their pools
// here rather than leaking. The engine must already have been Reset (or
// be fresh): leftover queue state references the old run's requests.
func (w *World) Reset(lat Latency) {
	w.lat = lat.WithDefaults()
	w.Perturb = nil
	w.started = false
	w.finished = 0
	w.finishedAt = 0
	for _, r := range w.ranks {
		for _, q := range r.posted[r.postedHead:] {
			if q != nil {
				// Pool every leftover posted receive: user code that could
				// hold an Irecv handle is gone (the run is over), so reuse
				// is unobservable. Attached messages come back too.
				if q.msg != nil {
					r.putMsg(q.msg)
				}
				r.putReq(q)
			}
		}
		r.posted = r.posted[:0]
		r.postedHead, r.postedHoles = 0, 0
		for _, m := range r.unexpected[r.unexpectedHead:] {
			if m != nil {
				r.putMsg(m)
			}
		}
		r.unexpected = r.unexpected[:0]
		r.unexpectedHead, r.unexpectedHoles = 0, 0
		r.msgSeq = 0
		r.lastArrive = r.lastArrive[:0]
		r.block = blockState{}
		r.threads = nil
		r.hung = false
		r.proc = nil
		r.stack.Reset("main")
	}
	w.worldComm.reset()
	for i, c := range w.derived {
		c.reset() // reclaim in-flight ops before dropping the comm
		w.derived[i] = nil
	}
	w.derived = w.derived[:0]
}

// Engine returns the world's simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Ranks returns all ranks in rank order.
func (w *World) Ranks() []*Rank { return w.ranks }

// Latency returns the world's latency model.
func (w *World) Latency() Latency { return w.lat }

// rankStreamSalt keys per-rank random streams apart from every other
// derivation of the engine seed (collective draws use collSalt).
const rankStreamSalt = 0x726b // "rk"

// Launch starts every rank running body at virtual time 0 (or the
// current time if the engine has already advanced). Ranks are homed on
// engine shards in consecutive groups of shardGroupSize (shard 0 stays
// reserved for system activity), and each gets a fresh private random
// stream derived from the engine's current seed. It may be called once
// per world.
func (w *World) Launch(body func(r *Rank)) {
	if w.started {
		panic("mpi: world already launched")
	}
	w.started = true
	seed := uint64(w.eng.Seed())
	now := w.eng.Now()
	for _, r := range w.ranks {
		r := r
		r.rng.Seed(sim.Mix64(seed, rankStreamSalt, uint64(r.id)))
		r.proc = w.eng.SpawnOn(1+r.id/w.group, r.name, now, func(p *sim.Proc) {
			body(r)
			if t := p.Now(); t > w.finishedAt {
				w.finishedAt = t
			}
			w.finished++
		})
	}
}

// Done reports whether every rank's body has returned.
func (w *World) Done() bool { return w.started && w.finished == len(w.ranks) }

// Finished reports how many ranks have completed.
func (w *World) Finished() int { return w.finished }

// FinishedAt returns the virtual time at which the last rank completed
// (zero until Done).
func (w *World) FinishedAt() sim.Time {
	if !w.Done() {
		return 0
	}
	return w.finishedAt
}
