// Package fault injects hangs into simulated MPI workloads, mirroring
// the paper's methodology (§7, "Fault injection"): suspend a randomly
// selected process inside a random invocation of a user function
// (computation-error hang), freeze a whole node, or break communication
// so that every rank blocks inside MPI (communication-error hang).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"parastack/internal/mpi"
)

// Kind classifies the injected error.
type Kind int

const (
	// None disables injection (clean run).
	None Kind = iota
	// ComputationHang stops one rank inside application code: the
	// simulated analogue of an infinite loop, stuck IO, or a soft
	// error. The faulty rank stays OUT_MPI forever.
	ComputationHang
	// NodeFreeze stops every rank of the faulty rank's node inside
	// application code (an unresponsive node).
	NodeFreeze
	// CommunicationDeadlock makes the faulty rank block in a receive
	// that can never be matched, so it — and transitively everyone —
	// ends up IN_MPI forever.
	CommunicationDeadlock
	// LostMessage makes the faulty rank wait for a message from a
	// distant peer that was never sent (the simulated analogue of a
	// dropped or corrupted message): the victim blocks in MPI_Recv
	// naming a real peer that has long since moved on.
	LostMessage
	// CollectiveMismatch desynchronizes the faulty rank's collective
	// call sequence: it enters a collective nobody else ever joins, so
	// it and the rest of the job park in *different* collectives on the
	// same communicator.
	CollectiveMismatch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case ComputationHang:
		return "computation-hang"
	case NodeFreeze:
		return "node-freeze"
	case CommunicationDeadlock:
		return "communication-deadlock"
	case LostMessage:
		return "lost-message"
	case CollectiveMismatch:
		return "collective-mismatch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindNames maps every accepted fault-kind spelling to its Kind: the
// String forms ("computation-hang") and the short CLI spellings the
// commands use ("computation", "node", "deadlock", "none"). "" also
// parses as None but is not advertised by Names.
var kindNames = map[string]Kind{
	"none":                   None,
	"computation":            ComputationHang,
	"computation-hang":       ComputationHang,
	"node":                   NodeFreeze,
	"node-freeze":            NodeFreeze,
	"deadlock":               CommunicationDeadlock,
	"communication-deadlock": CommunicationDeadlock,
	"lost":                   LostMessage,
	"lost-message":           LostMessage,
	"mismatch":               CollectiveMismatch,
	"collective-mismatch":    CollectiveMismatch,
}

// CommPhase reports whether the fault strands its victim *inside* MPI
// (IN_MPI forever). The paper's faulty-rank identification only applies
// to computation-error hangs — victims persistently OUT_MPI — so
// detectors and accuracy metrics use this to know when identification
// is structurally impossible and root-cause analysis must rely on the
// wait-for graph instead.
func (k Kind) CommPhase() bool {
	switch k {
	case CommunicationDeadlock, LostMessage, CollectiveMismatch:
		return true
	default:
		return false
	}
}

// Names lists every accepted fault-kind spelling, sorted.
func Names() []string {
	out := make([]string, 0, len(kindNames))
	for n := range kindNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Parse maps a fault-kind name to its Kind; unknown names produce an
// error enumerating every accepted spelling.
func Parse(name string) (Kind, error) {
	if name == "" {
		return None, nil
	}
	if k, ok := kindNames[name]; ok {
		return k, nil
	}
	return None, fmt.Errorf("fault: unknown kind %q (accepted: %s)", name, strings.Join(Names(), ", "))
}

// deadTag is a message tag no workload uses; a receive on it from the
// rank itself can never complete.
const deadTag = 0x7fffffff

// Plan describes one injection: which rank misbehaves, at which solver
// iteration, and how.
type Plan struct {
	Kind      Kind
	Rank      int
	Iteration int
	// PPN is needed by NodeFreeze to identify the victim node's ranks.
	PPN int
}

// NewRandomPlan draws a plan with a uniformly random victim rank and a
// uniformly random trigger iteration in [minIter, iters). The paper
// discards faults landing in the first ~20 seconds (model-building
// phase); callers encode that by passing an appropriate minIter.
func NewRandomPlan(rng *rand.Rand, kind Kind, size, iters, minIter, ppn int) Plan {
	if iters <= 0 {
		iters = 1 // degenerate spec: the only possible trigger is iteration 0
	}
	if minIter >= iters {
		minIter = iters - 1
	}
	if minIter < 0 {
		minIter = 0
	}
	return Plan{
		Kind:      kind,
		Rank:      rng.Intn(size),
		Iteration: minIter + rng.Intn(iters-minIter),
		PPN:       ppn,
	}
}

// Injector is the runtime state of a plan across one simulated run.
// A nil *Injector is a valid no-op, so clean runs need no special
// casing in workload code.
type Injector struct {
	Plan

	// The trigger record: a node-freeze has several victims, and
	// TriggeredAt is min-wins so the recorded instant is the earliest
	// victim in virtual time, whichever reaches Check first.
	triggered   bool
	TriggeredAt time.Duration
}

// NewInjector wraps a plan for one run.
func NewInjector(p Plan) *Injector { return &Injector{Plan: p} }

// Triggered reports whether the fault has fired, and when.
func (in *Injector) Triggered() (bool, time.Duration) {
	if in == nil {
		return false, 0
	}
	return in.triggered, in.TriggeredAt
}

// Check is called by workloads from inside a user-function frame at
// iteration boundaries. If the plan matches this rank and iteration the
// fault fires: the method never returns for the victim rank(s) of a
// hang-style fault.
func (in *Injector) Check(r *mpi.Rank, iter int) {
	if in == nil || in.Kind == None {
		return
	}
	if iter != in.Iteration {
		return
	}
	victim := r.ID() == in.Rank
	if in.Kind == NodeFreeze && in.PPN > 0 {
		victim = r.ID()/in.PPN == in.Rank/in.PPN
	}
	if !victim {
		return
	}
	now := time.Duration(r.Now())
	if !in.triggered || now < in.TriggeredAt {
		in.triggered = true
		in.TriggeredAt = now
	}
	switch in.Kind {
	case ComputationHang, NodeFreeze:
		// Hang inside an application frame: OUT_MPI forever.
		r.Stack().Push("injected_infinite_loop")
		r.HangForever()
	case CommunicationDeadlock:
		// Block forever inside MPI_Recv on a message nobody sends.
		r.Recv(r.ID(), deadTag)
		panic("fault: dead receive completed")
	case LostMessage:
		// Wait for a message a far-away peer "lost": the peer is real
		// and keeps running, but it never sends on deadTag. The far
		// offset keeps the victim's phantom dependency out of any
		// halo-neighbor receive cycles, so the wait-for graph shows a
		// dangling edge, not a spurious deadlock.
		size := r.World().Size()
		off := size / 2
		if off < 1 {
			off = 1
		}
		r.Recv((r.ID()+off)%size, deadTag)
		panic("fault: lost-message receive completed")
	case CollectiveMismatch:
		// Enter an orphan collective nobody else ever joins.
		r.DesyncCollective(mpi.CollBarrier)
	}
}

// FaultyRanks returns the set of ranks the plan makes faulty.
func (p Plan) FaultyRanks() []int {
	switch p.Kind {
	case NodeFreeze:
		if p.PPN > 0 {
			node := p.Rank / p.PPN
			out := make([]int, 0, p.PPN)
			for r := node * p.PPN; r < (node+1)*p.PPN; r++ {
				out = append(out, r)
			}
			return out
		}
		return []int{p.Rank}
	case None:
		return nil
	default:
		return []int{p.Rank}
	}
}
