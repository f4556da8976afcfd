package mpi

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"parastack/internal/sim"
	"parastack/internal/stack"
)

func newTestWorld(t *testing.T, size int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, NewWorld(eng, size, Latency{})
}

func TestSendRecvBlocking(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	var got int
	var recvAt sim.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(10 * time.Millisecond)
			r.Send(1, 7, 1024)
		case 1:
			got = r.Recv(0, 7)
			recvAt = r.Now()
		}
	})
	eng.RunAll()
	if !w.Done() {
		t.Fatal("world did not complete")
	}
	if got != 1024 {
		t.Fatalf("received %d bytes, want 1024", got)
	}
	if recvAt < 10*time.Millisecond {
		t.Fatalf("receive completed at %v, before the send at 10ms", recvAt)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	// Receiver posts first and must block until the sender shows up.
	eng, w := newTestWorld(t, 2)
	var recvAt sim.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Recv(1, 0)
			recvAt = r.Now()
		case 1:
			r.Compute(time.Second)
			r.Send(0, 0, 8)
		}
	})
	eng.RunAll()
	if recvAt < time.Second {
		t.Fatalf("recv returned at %v, want >= 1s", recvAt)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Messages between one (src, dst) pair with the same tag must be
	// received in send order.
	eng, w := newTestWorld(t, 2)
	var sizes []int
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 1; i <= 5; i++ {
				r.Send(1, 0, i*100)
			}
		case 1:
			for i := 0; i < 5; i++ {
				sizes = append(sizes, r.Recv(0, 0))
			}
		}
	})
	eng.RunAll()
	for i, s := range sizes {
		if s != (i+1)*100 {
			t.Fatalf("messages reordered: %v", sizes)
		}
	}
}

// TestNonOvertakingManyPeers: every rank Isends k messages to each of
// 16 peers, interleaved round by round, all issued at one instant with
// random sizes, so jitter and size alone would reorder messages of one
// pair. Every receiver must still see each sender's messages in send
// order. A second run on the reset world (which keeps each rank's
// arrival clamps' storage) must give the same receive times as the
// first, fresh one.
func TestNonOvertakingManyPeers(t *testing.T) {
	const size, k = 17, 6
	// bytes encodes a message's identity in its low 12 bits above a
	// random size of up to 1 MB, so wire latencies differ by up to
	// ~175 µs between messages of one pair.
	rng := rand.New(rand.NewSource(7))
	type sent struct{ src, seq int }
	plan := make([][][]int, size) // plan[src][round] = bytes per peer slot
	ident := map[int]sent{}
	id := 0
	for src := range plan {
		plan[src] = make([][]int, k)
		for j := range plan[src] {
			plan[src][j] = make([]int, size-1)
			for p := range plan[src][j] {
				b := (1+rng.Intn(256))<<12 | id
				id++
				plan[src][j][p] = b
				ident[b] = sent{src, j}
			}
		}
	}
	run := func(eng *sim.Engine, w *World) [][]sim.Time {
		at := make([][]sim.Time, size)
		w.Launch(func(r *Rank) {
			me := r.ID()
			for j := 0; j < k; j++ {
				for p := 0; p < size-1; p++ {
					// Peers in a per-round rotation: interleaved, not
					// one peer at a time.
					dst := (me + 1 + (p+j)%(size-1)) % size
					r.Isend(dst, 0, plan[me][j][(p+j)%(size-1)])
				}
				r.Compute(10 * time.Microsecond)
			}
			next := make([]int, size) // next expected seq per source
			for n := 0; n < k*(size-1); n++ {
				got := ident[r.Recv(AnySource, 0)]
				if got.seq != next[got.src] {
					t.Errorf("rank %d: message %d from %d arrived when %d was due", me, got.seq, got.src, next[got.src])
				}
				next[got.src] = got.seq + 1
				at[me] = append(at[me], r.Now())
			}
		})
		eng.RunAll()
		if !w.Done() {
			t.Fatal("world did not complete")
		}
		return at
	}
	eng := sim.NewEngine(5)
	w := NewWorld(eng, size, Latency{})
	fresh := run(eng, w)
	eng.Reset(5)
	w.Reset(Latency{})
	if again := run(eng, w); !reflect.DeepEqual(again, fresh) {
		t.Fatalf("rerun on the reset world received at other times:\n got %v\nwant %v", again, fresh)
	}
}

// TestSteadyStateSendZeroAlloc: a send to a peer the rank has sent to
// before allocates nothing: its frame is pre-classified, the arrival
// clamp updates the peer's entry in place, and the message, request
// and events come from pools (the ping-pong keeps both ranks' message
// pools stocked).
func TestSteadyStateSendZeroAlloc(t *testing.T) {
	const warm, runs = 8, 100
	eng, w := newTestWorld(t, 2)
	avg := -1.0
	w.Launch(func(r *Rank) {
		if r.ID() == 1 {
			for i := 0; i < warm+runs+1; i++ { // AllocsPerRun adds one warm-up call
				r.Recv(0, 0)
				r.Send(0, 0, 8)
			}
			return
		}
		pingPong := func() {
			r.Send(1, 0, 8)
			r.Recv(1, 0)
		}
		for i := 0; i < warm; i++ {
			pingPong()
		}
		avg = testing.AllocsPerRun(runs, pingPong)
	})
	eng.RunAll()
	if !w.Done() {
		t.Fatal("world did not complete")
	}
	if avg != 0 {
		t.Fatalf("steady-state send/recv allocates %v objects per exchange, want 0", avg)
	}
}

// TestMPIFunctionClassification: every frame the MPI layer interns, and
// every collective's, carries the classification the stack package
// gives its name; exactly MPI_Test and MPI_Iprobe are polling.
func TestMPIFunctionClassification(t *testing.T) {
	frames := []stack.Frame{frameSend, frameIsend, frameSsend, frameRecv, frameIrecv,
		frameSendrecv, frameWait, frameWaitall, frameWaitany, frameTest, frameIprobe, frameProbe}
	if len(collFrames) != int(CollAlltoall)+1 {
		t.Fatalf("collFrames has %d entries, want one per CollKind (%d)", len(collFrames), int(CollAlltoall)+1)
	}
	for k := CollBarrier; k <= CollAlltoall; k++ {
		if f := k.frame(); f.Name != k.String() || f.Name == "" {
			t.Errorf("%v: frame %q, want its String", k, f.Name)
		}
		frames = append(frames, k.frame())
	}
	for _, f := range frames {
		if !f.MPI || !stack.IsMPIFrame(f.Name) {
			t.Errorf("%q: MPI %v, IsMPIFrame %v, want both true", f.Name, f.MPI, stack.IsMPIFrame(f.Name))
		}
		want := f.Name == "MPI_Test" || f.Name == "MPI_Iprobe"
		if f.Polling != want || stack.IsPollingFunc(f.Name) != want {
			t.Errorf("%q: Polling %v, IsPollingFunc %v, want %v", f.Name, f.Polling, stack.IsPollingFunc(f.Name), want)
		}
	}
}

func TestTagMatching(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	var first, second int
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 5, 500)
			r.Send(1, 9, 900)
		case 1:
			// Receive tag 9 first even though tag 5 was sent earlier.
			first = r.Recv(0, 9)
			second = r.Recv(0, 5)
		}
	})
	eng.RunAll()
	if first != 900 || second != 500 {
		t.Fatalf("tag matching failed: first=%d second=%d", first, second)
	}
}

func TestAnySourceWildcard(t *testing.T) {
	eng, w := newTestWorld(t, 3)
	var got []int
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 2; i++ {
				got = append(got, r.Recv(AnySource, AnyTag))
			}
		default:
			r.Compute(time.Duration(r.ID()) * time.Millisecond)
			r.Send(0, r.ID(), r.ID()*1000)
		}
	})
	eng.RunAll()
	if len(got) != 2 || got[0]+got[1] != 3000 {
		t.Fatalf("wildcard receive got %v", got)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	var done bool
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			q := r.Isend(1, 3, 64)
			r.Compute(5 * time.Millisecond)
			r.Wait(q)
		case 1:
			q := r.Irecv(0, 3)
			r.Compute(time.Millisecond)
			r.Wait(q)
			done = true
		}
	})
	eng.RunAll()
	if !done {
		t.Fatal("irecv+wait did not complete")
	}
}

func TestBusyWaitTestLoop(t *testing.T) {
	// The paper's third communication style: Irecv + MPI_Test busy loop.
	eng, w := newTestWorld(t, 2)
	tests := 0
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(20 * time.Millisecond)
			r.Send(1, 0, 32)
		case 1:
			q := r.Irecv(0, 0)
			for !r.Test(q) {
				tests++
				r.Spin(time.Millisecond)
			}
		}
	})
	eng.RunAll()
	if !w.Done() {
		t.Fatal("busy-wait loop did not complete")
	}
	if tests < 10 {
		t.Fatalf("expected many test iterations, got %d", tests)
	}
}

func TestIprobe(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	var before, after bool
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			before = r.Iprobe(1, 0)
			r.Compute(2 * time.Second)
			after = r.Iprobe(1, 0)
			r.Recv(1, 0)
		case 1:
			r.Compute(time.Second)
			r.Send(0, 0, 16)
		}
	})
	eng.RunAll()
	if before {
		t.Fatal("Iprobe saw a message before it was sent")
	}
	if !after {
		t.Fatal("Iprobe missed an arrived message")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := newTestWorld(t, 8)
	var exits []sim.Time
	w.Launch(func(r *Rank) {
		r.Compute(time.Duration(r.ID()) * 10 * time.Millisecond)
		r.Barrier()
		exits = append(exits, r.Now())
	})
	eng.RunAll()
	if len(exits) != 8 {
		t.Fatalf("exits = %v", exits)
	}
	// Nobody may leave before the slowest rank (70ms) entered.
	for _, e := range exits {
		if e < 70*time.Millisecond {
			t.Fatalf("rank left barrier at %v, before last arrival at 70ms", e)
		}
	}
}

func TestAllreduceStateDuringWait(t *testing.T) {
	// While blocked in a collective, a rank must sample as IN_MPI.
	eng, w := newTestWorld(t, 4)
	w.Launch(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(time.Second)
		}
		r.Allreduce(8)
	})
	eng.Run(500 * time.Millisecond)
	inMPI := 0
	for _, r := range w.Ranks() {
		if r.InMPI() {
			inMPI++
		}
	}
	if inMPI != 3 {
		t.Fatalf("at t=500ms, %d ranks IN_MPI, want 3 (rank 0 still computing)", inMPI)
	}
	if w.Rank(0).InMPI() {
		t.Fatal("rank 0 should be computing (OUT_MPI)")
	}
	eng.RunAll()
	if !w.Done() {
		t.Fatal("allreduce did not complete")
	}
}

func TestGatherRootWaitsNonRootsLeave(t *testing.T) {
	eng, w := newTestWorld(t, 4)
	var rootDone, fastDone sim.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Gather(0, 64)
			rootDone = r.Now()
		case 3:
			r.Compute(time.Second) // straggler
			r.Gather(0, 64)
		default:
			r.Gather(0, 64)
			if r.ID() == 1 {
				fastDone = r.Now()
			}
		}
	})
	eng.RunAll()
	if rootDone < time.Second {
		t.Fatalf("root finished gather at %v, before straggler entered", rootDone)
	}
	if fastDone >= time.Second {
		t.Fatalf("non-root stuck in gather until %v; gather must not synchronize non-roots", fastDone)
	}
}

func TestBcastNonRootsWaitForRoot(t *testing.T) {
	eng, w := newTestWorld(t, 4)
	var nonRootDone, rootDone sim.Time
	w.Launch(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(time.Second)
			r.Bcast(0, 1024)
			rootDone = r.Now()
		} else {
			r.Bcast(0, 1024)
			if r.ID() == 1 {
				nonRootDone = r.Now()
			}
		}
	})
	eng.RunAll()
	if nonRootDone < time.Second {
		t.Fatalf("non-root left bcast at %v before root entered at 1s", nonRootDone)
	}
	if rootDone > 1100*time.Millisecond {
		t.Fatalf("root lingered in bcast until %v", rootDone)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	panicked := make(chan any, 2)
	w.Launch(func(r *Rank) {
		defer func() {
			if p := recover(); p != nil {
				panicked <- p
				// Re-park forever so the engine handoff stays sane.
				r.Proc().Suspend()
			}
		}()
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Allreduce(8)
		}
	})
	eng.RunAll()
	select {
	case <-panicked:
	default:
		t.Fatal("mismatched collectives must panic")
	}
}

func TestCommunicationDeadlockLeavesRanksInMPI(t *testing.T) {
	// A missing send: rank 1 waits forever. This is the
	// communication-error hang of the paper — all ranks end IN_MPI.
	eng, w := newTestWorld(t, 4)
	w.Launch(func(r *Rank) {
		if r.ID() == 1 {
			r.Recv(0, 99) // never sent
		}
		r.Barrier()
	})
	end := eng.Run(time.Minute)
	if w.Done() {
		t.Fatal("deadlocked world reported done")
	}
	for _, r := range w.Ranks() {
		if !r.InMPI() {
			t.Fatalf("rank %d is %v during a communication deadlock, want IN_MPI",
				r.ID(), r.Stack().State())
		}
	}
	_ = end
}

func TestComputationHangLeavesFaultyRankOut(t *testing.T) {
	// Rank 2 hangs in user code; everyone else piles into the barrier.
	eng, w := newTestWorld(t, 4)
	w.Launch(func(r *Rank) {
		if r.ID() == 2 {
			r.Call("buggy_kernel", func() {
				r.Compute(5 * time.Millisecond)
				r.HangForever()
			})
		}
		r.Barrier()
	})
	eng.Run(time.Minute)
	for _, r := range w.Ranks() {
		want := stack.InMPI
		if r.ID() == 2 {
			want = stack.OutMPI
		}
		if r.Stack().State() != want {
			t.Fatalf("rank %d state = %v, want %v", r.ID(), r.Stack().State(), want)
		}
	}
	if w.Rank(2).Stack().Top() != "buggy_kernel" {
		t.Fatalf("faulty rank's top frame = %q, want buggy_kernel", w.Rank(2).Stack().Top())
	}
}

func TestAlltoallScalesWithBytes(t *testing.T) {
	run := func(bytes int) sim.Time {
		eng := sim.NewEngine(1)
		w := NewWorld(eng, 16, Latency{Jitter: 0.0001})
		w.Launch(func(r *Rank) { r.Alltoall(bytes) })
		return eng.RunAll()
	}
	small := run(1 << 10)
	large := run(1 << 26)
	if large < 10*small {
		t.Fatalf("alltoall with 64MB (%v) not much slower than 1KB (%v)", large, small)
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine(99)
		w := NewWorld(eng, 32, Latency{})
		w.Launch(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Compute(time.Duration(1+eng.Rand().Intn(5)) * time.Millisecond)
				r.SendRecv((r.ID()+1)%32, 0, 4096, (r.ID()+31)%32, 0)
				r.Allreduce(8)
			}
		})
		return eng.RunAll()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different end times: %v vs %v", a, b)
	}
}

func TestPerturbHookScalesCompute(t *testing.T) {
	eng, w := newTestWorld(t, 1)
	w.Perturb = func(r *Rank, d time.Duration) time.Duration { return 3 * d }
	var done sim.Time
	w.Launch(func(r *Rank) {
		r.Compute(100 * time.Millisecond)
		done = r.Now()
	})
	eng.RunAll()
	if done != 300*time.Millisecond {
		t.Fatalf("perturbed compute finished at %v, want 300ms", done)
	}
}

func TestStackInMPIOnlyDuringCalls(t *testing.T) {
	eng, w := newTestWorld(t, 2)
	w.Launch(func(r *Rank) {
		if r.InMPI() {
			t.Error("rank started IN_MPI")
		}
		if r.ID() == 0 {
			r.Send(1, 0, 8)
		} else {
			r.Recv(0, 0)
		}
		if r.InMPI() {
			t.Error("rank still IN_MPI after blocking call returned")
		}
	})
	eng.RunAll()
}

func BenchmarkHaloExchangeRing64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		w := NewWorld(eng, 64, Latency{})
		w.Launch(func(r *Rank) {
			for it := 0; it < 10; it++ {
				r.Compute(time.Millisecond)
				r.SendRecv((r.ID()+1)%64, 0, 8192, (r.ID()+63)%64, 0)
			}
		})
		eng.RunAll()
	}
}

func BenchmarkAllreduce256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		w := NewWorld(eng, 256, Latency{})
		w.Launch(func(r *Rank) {
			for it := 0; it < 5; it++ {
				r.Compute(time.Millisecond)
				r.Allreduce(64)
			}
		})
		eng.RunAll()
	}
}
