package stack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsMPIFrame(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"MPI_Send", true},
		{"mpi_send_", true},
		{"PMPI_Allreduce", true},
		{"pmpi_wait", true},
		{"main", false},
		{"solve_rhs", false},
		{"myMPIHelper", false}, // prefix rule: must start with the prefix
		{"", false},
	}
	for _, c := range cases {
		if got := IsMPIFrame(c.name); got != c.want {
			t.Errorf("IsMPIFrame(%q) = %v, want %v", c.name, got, c.want)
		}
		if f := Classify(c.name); f.Name != c.name || f.MPI != c.want || f.Polling {
			t.Errorf("Classify(%q) = %+v, want MPI %v and not polling", c.name, f, c.want)
		}
	}
}

// Every MPI function name the simulator pushes, plus the rest of the
// polling set, with the classification the transient-slowdown filter
// reads: all are MPI frames, and exactly MPI_Iprobe and the MPI_Test
// family are busy-wait polling.
func TestMPIFunctionClassification(t *testing.T) {
	cases := []struct {
		name    string
		polling bool
	}{
		{"MPI_Allgather", false},
		{"MPI_Allreduce", false},
		{"MPI_Alltoall", false},
		{"MPI_Barrier", false},
		{"MPI_Bcast", false},
		{"MPI_Gather", false},
		{"MPI_Irecv", false},
		{"MPI_Isend", false},
		{"MPI_Probe", false},
		{"MPI_Recv", false},
		{"MPI_Reduce", false},
		{"MPI_Scatter", false},
		{"MPI_Send", false},
		{"MPI_Sendrecv", false},
		{"MPI_Ssend", false},
		{"MPI_Wait", false},
		{"MPI_Waitall", false},
		{"MPI_Waitany", false},
		{"MPI_Iprobe", true},
		{"MPI_Test", true},
		{"MPI_Testall", true},
		{"MPI_Testany", true},
		{"MPI_Testsome", true},
	}
	for _, c := range cases {
		if !IsMPIFrame(c.name) {
			t.Errorf("IsMPIFrame(%q) = false, want true", c.name)
		}
		if got := IsPollingFunc(c.name); got != c.polling {
			t.Errorf("IsPollingFunc(%q) = %v, want %v", c.name, got, c.polling)
		}
		if f := Classify(c.name); f.Name != c.name || !f.MPI || f.Polling != c.polling {
			t.Errorf("Classify(%q) = %+v, want MPI and polling %v", c.name, f, c.polling)
		}
	}
}

// PushFrame and Pop of a pre-classified frame allocate nothing once the
// stack's backing array has grown: the per-MPI-call path is free of
// allocation as well as of string work.
func TestPushFramePopZeroAlloc(t *testing.T) {
	s := New("main")
	send, test := Classify("MPI_Send"), Classify("MPI_Test")
	s.PushFrame(send)
	s.PushFrame(test)
	s.Pop()
	s.Pop()
	avg := testing.AllocsPerRun(1000, func() {
		s.PushFrame(send)
		s.PushFrame(test)
		s.Pop()
		s.Pop()
	})
	if avg != 0 {
		t.Fatalf("PushFrame/Pop allocates %v objects per call pair, want 0", avg)
	}
}

func TestStateInference(t *testing.T) {
	s := New("main", "solver")
	if s.State() != OutMPI {
		t.Fatalf("state = %v, want OUT_MPI", s.State())
	}
	s.Push("compute_rhs")
	if s.State() != OutMPI {
		t.Fatalf("state = %v, want OUT_MPI", s.State())
	}
	s.Push("MPI_Allreduce")
	if s.State() != InMPI {
		t.Fatalf("state = %v, want IN_MPI", s.State())
	}
	// MPI implementations call helpers; a non-MPI frame above an MPI
	// frame must still classify as IN_MPI (the scan looks at all frames).
	s.Push("memcpy_impl")
	if s.State() != InMPI {
		t.Fatalf("state with inner helper = %v, want IN_MPI", s.State())
	}
	s.Pop()
	s.Pop()
	if s.State() != OutMPI {
		t.Fatalf("state after pop = %v, want OUT_MPI", s.State())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Pop()
}

func TestTopAndSnapshot(t *testing.T) {
	s := New("main")
	s.Push("a")
	s.Push("MPI_Send")
	if s.Top() != "MPI_Send" {
		t.Fatalf("Top = %q", s.Top())
	}
	if s.TopMPI() != "MPI_Send" {
		t.Fatalf("TopMPI = %q", s.TopMPI())
	}
	snap := s.Snapshot()
	want := []string{"main", "a", "MPI_Send"}
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", snap, want)
		}
	}
	// Snapshot must be a copy.
	snap[0] = "clobbered"
	if s.Snapshot()[0] != "main" {
		t.Fatal("Snapshot aliases internal storage")
	}
}

func TestVersionAdvances(t *testing.T) {
	s := New()
	v0 := s.Version()
	s.Push("f")
	if s.Version() == v0 {
		t.Fatal("version did not advance on push")
	}
	v1 := s.Version()
	s.Pop()
	if s.Version() == v1 {
		t.Fatal("version did not advance on pop")
	}
}

func TestEntryCounters(t *testing.T) {
	s := New("main")
	s.Push("MPI_Send")
	s.Pop()
	s.Push("MPI_Test")
	s.Pop()
	s.Push("MPI_Iprobe")
	s.Pop()
	tr := s.Observe()
	if tr.NonPollEntries != 1 {
		t.Fatalf("NonPollEntries = %d, want 1", tr.NonPollEntries)
	}
	if tr.PollEntries != 2 {
		t.Fatalf("PollEntries = %d, want 2", tr.PollEntries)
	}
}

func TestCompareTracesHang(t *testing.T) {
	// A hung process: identical traces.
	s := New("main", "MPI_Allreduce")
	a := s.Observe()
	b := s.Observe()
	if CompareTraces(a, b) != NoProgress {
		t.Fatal("identical traces must be NoProgress")
	}
}

func TestCompareTracesBusyWait(t *testing.T) {
	// A busy-waiting process flips in and out of MPI_Test: polling
	// motion only, still NoProgress (treated as staying inside MPI).
	s := New("main", "hpl_bcast_poll")
	a := s.Observe()
	for i := 0; i < 5; i++ {
		s.Push("MPI_Test")
		s.Pop()
	}
	b := s.Observe()
	if CompareTraces(a, b) != NoProgress {
		t.Fatal("pure polling motion must be NoProgress")
	}
}

func TestCompareTracesSlowdownDifferentMPI(t *testing.T) {
	// Rule 1: passing through different (non-poll) MPI functions.
	s := New("main")
	s.Push("MPI_Send")
	a := s.Observe()
	s.Pop()
	s.Push("MPI_Allreduce")
	b := s.Observe()
	if CompareTraces(a, b) != SlowProgress {
		t.Fatal("different MPI functions must be SlowProgress")
	}
}

// Rule 1 exempts only a move between two polling functions. A move
// between a polling and a non-polling function is SlowProgress in
// either direction, even when the non-poll entry count is unchanged
// (the traces are built by hand, so only TopMPI differs).
func TestCompareTracesPollBoundary(t *testing.T) {
	cases := []struct {
		from, to string
		want     ProgressKind
	}{
		{"MPI_Allreduce", "MPI_Iprobe", SlowProgress},
		{"MPI_Iprobe", "MPI_Allreduce", SlowProgress},
		{"MPI_Wait", "MPI_Test", SlowProgress},
		{"MPI_Testsome", "MPI_Recv", SlowProgress},
		{"MPI_Test", "MPI_Iprobe", NoProgress},
		{"MPI_Testany", "MPI_Testall", NoProgress},
	}
	for _, c := range cases {
		a := Trace{Version: 3, State: InMPI, TopMPI: c.from, NonPollEntries: 4, PollEntries: 9}
		b := Trace{Version: 5, State: InMPI, TopMPI: c.to, NonPollEntries: 4, PollEntries: 10}
		if got := CompareTraces(a, b); got != c.want {
			t.Errorf("CompareTraces(%s -> %s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestCompareTracesSlowdownNonPollEntry(t *testing.T) {
	// Rule 2: stepping in/out of a non-polling MPI function.
	s := New("main", "work")
	a := s.Observe()
	s.Push("MPI_Send")
	s.Pop()
	b := s.Observe()
	if CompareTraces(a, b) != SlowProgress {
		t.Fatal("non-poll entry growth must be SlowProgress")
	}
}

func TestCompareTracesComputeOnlyMotion(t *testing.T) {
	// A faulty process spinning in an infinite *computation* loop moves
	// (version changes) but never touches MPI: NoProgress per the two
	// rules, so it is still reported as a hang. (The paper's rules only
	// exempt processes demonstrably progressing through MPI.)
	s := New("main", "stuck_loop")
	a := s.Observe()
	s.Push("helper")
	s.Pop()
	b := s.Observe()
	if CompareTraces(a, b) != NoProgress {
		t.Fatal("non-MPI motion must not read as SlowProgress")
	}
}

// Property: State() == InMPI iff some frame has an MPI prefix, for
// random push/pop sequences.
func TestStatePropertyRandomWalk(t *testing.T) {
	names := []string{"MPI_Send", "MPI_Test", "compute", "main", "pmpi_x", "helper", "PMPI_Wait", "loop"}
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		depth := 0
		for i := 0; i < int(steps); i++ {
			if depth == 0 || rng.Intn(2) == 0 {
				s.Push(names[rng.Intn(len(names))])
				depth++
			} else {
				s.Pop()
				depth--
			}
			// Recompute ground truth from the snapshot.
			in := false
			for _, n := range s.Snapshot() {
				if IsMPIFrame(n) {
					in = true
					break
				}
			}
			if (s.State() == InMPI) != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	s := New("main", "solver", "compute_rhs", "MPI_Allreduce")
	for i := 0; i < b.N; i++ {
		_ = s.Observe()
	}
}

func BenchmarkPushPop(b *testing.B) {
	s := New("main")
	for i := 0; i < b.N; i++ {
		s.Push("MPI_Send")
		s.Pop()
	}
}
