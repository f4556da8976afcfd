// Package stack models the call stacks of simulated MPI processes and
// the IN_MPI / OUT_MPI runtime-state inference that ParaStack performs
// on real stacks via ptrace + libunwind.
//
// The paper (§5) infers a process's state by walking stack frames and
// checking whether any frame name starts with "mpi", "MPI", "pmpi" or
// "PMPI". This package reproduces exactly that inference on simulated
// stacks, plus the bookkeeping (trace signatures, MPI entry counters)
// needed by the transient-slowdown filter of §3.3.
package stack

import "strings"

// State is the runtime state of a process at an instant: executing MPI
// library code or application code.
type State int

const (
	// OutMPI means no stack frame belongs to the MPI library.
	OutMPI State = iota
	// InMPI means at least one stack frame is an MPI call.
	InMPI
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == InMPI {
		return "IN_MPI"
	}
	return "OUT_MPI"
}

// mpiPrefixes are the frame-name prefixes the paper's implementation
// looks for when classifying a frame as an MPI call.
var mpiPrefixes = []string{"mpi", "MPI", "pmpi", "PMPI"}

// IsMPIFrame reports whether a frame name denotes MPI library code,
// using the same prefix rule as the paper.
func IsMPIFrame(name string) bool {
	// Every prefix starts with m, M, p or P: application frames fail on
	// their first byte without entering the prefix loop.
	if name == "" {
		return false
	}
	switch name[0] {
	case 'm', 'M', 'p', 'P':
	default:
		return false
	}
	for _, p := range mpiPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// pollingFuncs are the non-blocking message-checking MPI functions.
// A process stepping in and out of only these (a busy-waiting loop) is
// treated as staying inside MPI by the transient-slowdown check.
var pollingFuncs = map[string]bool{
	"MPI_Iprobe":   true,
	"MPI_Test":     true,
	"MPI_Testany":  true,
	"MPI_Testsome": true,
	"MPI_Testall":  true,
}

// IsPollingFunc reports whether name is one of the MPI busy-wait
// polling functions (MPI_Iprobe / MPI_Test*).
func IsPollingFunc(name string) bool { return pollingFuncs[name] }

// Frame is a single call-stack entry.
type Frame struct {
	// Name is the function name, e.g. "MPI_Allreduce" or "solve_rhs".
	Name string
	// MPI caches IsMPIFrame(Name).
	MPI bool
	// Polling caches IsPollingFunc(Name).
	Polling bool
}

// Classify builds the frame for a function named name, applying the
// paper's prefix rule and the polling set once. Callers that enter the
// same function repeatedly (the MPI layer) classify it once and push
// the result with PushFrame.
func Classify(name string) Frame {
	f := Frame{Name: name, MPI: IsMPIFrame(name)}
	f.Polling = f.MPI && pollingFuncs[name]
	return f
}

// Stack is a simulated call stack. It is maintained by the simulated
// MPI runtime and workload code (Push/Pop) and inspected by monitors
// (State, Snapshot, Signature). Stacks are only mutated while their
// owning simulated process holds control, so no locking is needed.
type Stack struct {
	frames []Frame

	mpiDepth int // number of MPI frames currently on the stack

	// version increments on every push or pop; two equal versions imply
	// the process has not moved between two observations.
	version uint64

	// nonPollEntries counts completed or in-progress entries into MPI
	// functions that are not polling functions. The transient-slowdown
	// filter uses its delta between two traces: growth means the process
	// is stepping through "real" MPI calls, i.e. still making progress.
	nonPollEntries uint64

	// pollEntries counts entries into polling MPI functions
	// (MPI_Test & friends); busy-wait loops grow only this counter.
	pollEntries uint64
}

// New returns an empty stack, optionally pre-populated with base frames
// (e.g. "main").
func New(base ...string) *Stack {
	s := &Stack{}
	for _, n := range base {
		s.Push(n)
	}
	return s
}

// Reset returns the stack to the state New(base...) would produce,
// keeping the frame backing array so per-run reuse (mpi.World.Reset)
// does not reallocate. Versions and entry counters restart from zero.
func (s *Stack) Reset(base ...string) {
	s.frames = s.frames[:0]
	s.mpiDepth = 0
	s.version = 0
	s.nonPollEntries = 0
	s.pollEntries = 0
	for _, n := range base {
		s.Push(n)
	}
}

// Push enters a function.
func (s *Stack) Push(name string) { s.PushFrame(Classify(name)) }

// PushFrame enters the function f describes; f comes from Classify.
// It reads only f's flags, so a pre-classified frame costs no string
// work.
func (s *Stack) PushFrame(f Frame) {
	s.frames = append(s.frames, f)
	if f.MPI {
		s.mpiDepth++
		if f.Polling {
			s.pollEntries++
		} else {
			s.nonPollEntries++
		}
	}
	s.version++
}

// Pop leaves the innermost function. Popping an empty stack panics —
// it indicates unbalanced instrumentation in the simulated runtime.
func (s *Stack) Pop() {
	n := len(s.frames)
	if n == 0 {
		panic("stack: pop of empty stack")
	}
	if s.frames[n-1].MPI {
		s.mpiDepth--
	}
	s.frames = s.frames[:n-1]
	s.version++
}

// Depth returns the number of frames.
func (s *Stack) Depth() int { return len(s.frames) }

// Top returns the innermost frame name, or "" for an empty stack.
func (s *Stack) Top() string {
	if len(s.frames) == 0 {
		return ""
	}
	return s.frames[len(s.frames)-1].Name
}

// State classifies the process as InMPI if any frame is an MPI call.
// This mirrors the paper's backtrace scan.
func (s *Stack) State() State {
	if s.mpiDepth > 0 {
		return InMPI
	}
	return OutMPI
}

// TopMPI returns the innermost MPI frame name, or "" if none.
func (s *Stack) TopMPI() string {
	for i := len(s.frames) - 1; i >= 0; i-- {
		if s.frames[i].MPI {
			return s.frames[i].Name
		}
	}
	return ""
}

// Snapshot returns a copy of the frame names, outermost first.
func (s *Stack) Snapshot() []string {
	out := make([]string, len(s.frames))
	for i, f := range s.frames {
		out[i] = f.Name
	}
	return out
}

// Version returns the mutation counter.
func (s *Stack) Version() uint64 { return s.version }

// Trace is a point-in-time observation of a process's stack, as taken
// by a monitor. It captures everything the transient-slowdown filter
// needs to compare two observations.
type Trace struct {
	Version        uint64
	State          State
	TopMPI         string
	NonPollEntries uint64
	PollEntries    uint64
}

// Observe captures a Trace of the stack.
func (s *Stack) Observe() Trace {
	return Trace{
		Version:        s.version,
		State:          s.State(),
		TopMPI:         s.TopMPI(),
		NonPollEntries: s.nonPollEntries,
		PollEntries:    s.pollEntries,
	}
}

// ProgressKind classifies what happened between two traces of the same
// process, for the transient-slowdown filter of the paper's §3.3.
type ProgressKind int

const (
	// NoProgress: the process did not move at all, or moved only within
	// busy-wait polling (treated as staying inside MPI).
	NoProgress ProgressKind = iota
	// SlowProgress: the process is stepping through different MPI
	// functions or entering/leaving non-polling MPI calls — the
	// signature of a transient slowdown, not a hang.
	SlowProgress
)

// CompareTraces applies the paper's two rules to a pair of traces
// (earlier, later) of one process. It reports SlowProgress if:
//
//  1. the process passed through different MPI functions
//     (the innermost MPI frame changed), or
//  2. the process stepped in or out of MPI functions other than the
//     polling functions (the non-poll entry counter grew, or it
//     left/entered MPI entirely with a non-poll function involved).
//
// Anything else — identical stacks, or motion confined to MPI_Test-style
// busy-waiting — is NoProgress.
func CompareTraces(earlier, later Trace) ProgressKind {
	if later.TopMPI != earlier.TopMPI && later.TopMPI != "" && earlier.TopMPI != "" &&
		!(IsPollingFunc(later.TopMPI) && IsPollingFunc(earlier.TopMPI)) {
		return SlowProgress
	}
	if later.NonPollEntries != earlier.NonPollEntries {
		return SlowProgress
	}
	return NoProgress
}
