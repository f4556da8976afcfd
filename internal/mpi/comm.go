package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered subset of the world's ranks with
// its own collective-matching space, like the result of MPI_Comm_split.
// Row and column communicators are how real HPL-style codes run their
// panel broadcasts and pivot reductions; package workload keeps its
// skeletons on explicit point-to-point for fidelity to HPL's own
// userspace collectives, but library users get the real thing here.
type Comm struct {
	w     *World
	id    int     // 0 = world comm; derived comms count up in creation order
	ranks []int   // members as world ranks, in communicator order
	index []int32 // comm rank by world rank; -1 for a non-member

	// Collective-matching state: in-flight ops by call sequence, and
	// each member's call counter, indexed by world rank.
	colls   map[uint64]*collOp
	collSeq []uint64
}

// newComm builds a communicator over the given world ranks (order
// defines communicator ranks).
func newComm(w *World, members []int) *Comm {
	if len(members) == 0 {
		panic("mpi: empty communicator")
	}
	c := &Comm{
		w:       w,
		ranks:   append([]int(nil), members...),
		index:   make([]int32, w.Size()),
		colls:   make(map[uint64]*collOp),
		collSeq: make([]uint64, w.Size()),
	}
	for i := range c.index {
		c.index[i] = -1
	}
	for i, r := range c.ranks {
		if r < 0 || r >= w.Size() {
			panic(fmt.Sprintf("mpi: communicator member %d out of range", r))
		}
		if c.index[r] >= 0 {
			panic(fmt.Sprintf("mpi: rank %d appears twice in communicator", r))
		}
		c.index[r] = int32(i)
	}
	if w.worldComm != nil {
		// Derived (split) communicators are per-run objects; track them
		// so World.Reset can reclaim their in-flight collective state
		// (pooled waiter slices, ops) after hung runs.
		c.id = len(w.derived) + 1
		w.derived = append(w.derived, c)
	}
	return c
}

// reset clears the communicator's collective-matching state for a new
// run, returning in-flight ops (a hung run's leftovers) to the pools.
func (c *Comm) reset() {
	for seq, op := range c.colls {
		c.w.putCollOp(op)
		delete(c.colls, seq)
	}
	for i := range c.collSeq {
		c.collSeq[i] = 0
	}
}

// NewComm creates a communicator over the given world ranks.
func (w *World) NewComm(members []int) *Comm { return newComm(w, members) }

// Split implements MPI_Comm_split: ranks with equal color end up in the
// same communicator, ordered by (key, world rank). It returns the
// communicator containing each world rank, indexed by world rank
// (ranks given a negative color — MPI_UNDEFINED — get nil).
func (w *World) Split(color, key func(worldRank int) int) []*Comm {
	type member struct{ rank, key int }
	groups := map[int][]member{}
	for r := 0; r < w.Size(); r++ {
		c := color(r)
		if c < 0 {
			continue
		}
		k := 0
		if key != nil {
			k = key(r)
		}
		groups[c] = append(groups[c], member{r, k})
	}
	out := make([]*Comm, w.Size())
	for _, ms := range groups {
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].key != ms[j].key {
				return ms[i].key < ms[j].key
			}
			return ms[i].rank < ms[j].rank
		})
		ids := make([]int, len(ms))
		for i, m := range ms {
			ids[i] = m.rank
		}
		c := newComm(w, ids)
		for _, id := range ids {
			out[id] = c
		}
	}
	return out
}

// ID returns the communicator's stable identifier: 0 for the world
// communicator, and for derived communicators the 1-based creation
// order — deterministic across World.Reset because workloads recreate
// their splits in program order.
func (c *Comm) ID() int { return c.id }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// Members returns the world ranks in communicator order (do not mutate).
func (c *Comm) Members() []int { return c.ranks }

// RankOf returns r's communicator rank; it panics if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	if id := r.ID(); id < len(c.index) && c.index[id] >= 0 {
		return int(c.index[id])
	}
	panic(fmt.Sprintf("mpi: rank %d is not a member of this communicator", r.ID()))
}

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.ranks[commRank] }

// Barrier blocks until every member has entered.
func (c *Comm) Barrier(r *Rank) { c.collective(r, CollBarrier, 0, 0) }

// Bcast broadcasts from the member with communicator rank root.
func (c *Comm) Bcast(r *Rank, root, bytes int) { c.collective(r, CollBcast, root, bytes) }

// Reduce reduces to the member with communicator rank root.
func (c *Comm) Reduce(r *Rank, root, bytes int) { c.collective(r, CollReduce, root, bytes) }

// Allreduce is the synchronization-like reduction over the members.
func (c *Comm) Allreduce(r *Rank, bytes int) { c.collective(r, CollAllreduce, 0, bytes) }

// Gather gathers to root.
func (c *Comm) Gather(r *Rank, root, bytes int) { c.collective(r, CollGather, root, bytes) }

// Allgather is the synchronization-like gather.
func (c *Comm) Allgather(r *Rank, bytes int) { c.collective(r, CollAllgather, 0, bytes) }

// Scatter distributes from root.
func (c *Comm) Scatter(r *Rank, root, bytes int) { c.collective(r, CollScatter, root, bytes) }

// Alltoall is the synchronization-like total exchange over the members.
func (c *Comm) Alltoall(r *Rank, bytes int) { c.collective(r, CollAlltoall, 0, bytes) }

// Send/Recv in communicator rank space (tags share the world tag space).
func (c *Comm) Send(r *Rank, dstCommRank, tag, bytes int) {
	r.Send(c.ranks[dstCommRank], tag, bytes)
}

// Recv receives from a communicator rank (AnySource allowed).
func (c *Comm) Recv(r *Rank, srcCommRank, tag int) int {
	src := srcCommRank
	if src != AnySource {
		src = c.ranks[srcCommRank]
	}
	return r.Recv(src, tag)
}
