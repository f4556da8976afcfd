package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/workload"
)

// fakeRun returns instantly-completed results carrying the seed, so
// lifecycle tests don't pay for real simulations.
func fakeRun(rc experiment.RunConfig) experiment.RunResult {
	return experiment.RunResult{
		Spec:      rc.Params.Spec,
		Platform:  rc.Platform.Name,
		Seed:      rc.Seed,
		Completed: true,
	}
}

// simJob returns a valid simulation JobSpec.
func simJob(id string, seed int64) JobSpec {
	return JobSpec{ID: id, Bench: "CG", Class: "D", Procs: 64,
		Platform: "tardis", Fault: "computation", Seed: seed}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pinnedService starts a one-worker, one-shard service whose shard loop
// is wedged: one gated run occupies the worker and a second job is
// stuck in the loop's hand-off to the pool, so every envelope offered
// afterwards stays in the shard queue until release is called. setup
// runs before the wedge (admit the stream jobs a test wants attached).
func pinnedService(t *testing.T, cfg Config, setup func(*Service)) (s *Service, release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg.Run = func(rc experiment.RunConfig) experiment.RunResult {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return fakeRun(rc)
	}
	cfg.Workers, cfg.Shards = 1, 1
	s = New(cfg)
	if setup != nil {
		setup(s)
	}
	if err := s.Submit(simJob("pin-worker", 1)); err != nil {
		t.Fatalf("pin: %v", err)
	}
	<-started
	if err := s.Submit(simJob("pin-loop", 2)); err != nil {
		t.Fatalf("pin: %v", err)
	}
	waitUntil(t, "the shard loop to take the second pin job", func() bool { return len(s.shards[0]) == 0 })
	var once sync.Once
	return s, func() { once.Do(func() { close(gate) }) }
}

func TestSubmitValidationAndDuplicates(t *testing.T) {
	s := New(Config{Run: fakeRun})
	defer s.Close()

	if err := s.Submit(JobSpec{}); err == nil {
		t.Fatal("empty job admitted")
	}
	if err := s.Submit(JobSpec{ID: "bad", Bench: "NOPE", Class: "D", Procs: 64, Platform: "tardis"}); err == nil {
		t.Fatal("unknown workload admitted")
	}
	if err := s.Submit(JobSpec{ID: "bad2", Bench: "CG", Class: "D", Procs: 64, Platform: "nowhere"}); err == nil {
		t.Fatal("unknown platform admitted")
	}
	if err := s.Submit(JobSpec{ID: "bad3", Bench: "CG", Class: "D", Procs: 64, Platform: "tardis", Fault: "gremlins"}); err == nil {
		t.Fatal("unknown fault admitted")
	}
	if err := s.Submit(simJob("j1", 1)); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	if err := s.Submit(simJob("j1", 2)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate id error = %v, want ErrDuplicate", err)
	}
	if _, err := s.Wait(context.Background(), "j1"); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// A decided job's ID stays taken: verdicts are immutable history.
	if err := s.Submit(simJob("j1", 3)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmit after verdict error = %v, want ErrDuplicate", err)
	}
	snap := s.Counters()
	if got := snap.Counter(CtrJobsRejected); got != 6 {
		t.Errorf("jobs_rejected = %d, want 6", got)
	}
	if got := snap.Counter(CtrJobsAdmitted); got != 1 {
		t.Errorf("jobs_admitted = %d, want 1", got)
	}
}

func TestQuotaReject(t *testing.T) {
	// One worker stuck on a gated run; quota 2 fills with the running
	// job plus one queued job, and the third submission must bounce.
	gate := make(chan struct{})
	var once sync.Once
	slow := func(rc experiment.RunConfig) experiment.RunResult {
		<-gate
		return fakeRun(rc)
	}
	defer func() { once.Do(func() { close(gate) }) }()

	s := New(Config{Run: slow, Workers: 1, MaxJobs: 2})
	defer s.Close()

	if err := s.Submit(simJob("q1", 1)); err != nil {
		t.Fatalf("q1: %v", err)
	}
	if err := s.Submit(simJob("q2", 2)); err != nil {
		t.Fatalf("q2: %v", err)
	}
	if err := s.Submit(simJob("q3", 3)); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota error = %v, want ErrQuota", err)
	}
	once.Do(func() { close(gate) })
	for _, id := range []string{"q1", "q2"} {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	// Quota slots were released by the verdicts: admission works again.
	if err := s.Submit(simJob("q4", 4)); err != nil {
		t.Fatalf("post-release submit: %v", err)
	}
}

func TestBackpressureSlowConsumer(t *testing.T) {
	// The single worker never finishes, so the shard loop wedges handing
	// it the next job and a burst must fill the (tiny) shard queue and
	// turn into ErrBusy at admission instead of unbounded buffering.
	s, release := pinnedService(t, Config{MaxJobs: 100, ShardDepth: 2}, nil)
	defer s.Close()
	defer release()

	for i := 0; i < 2; i++ {
		if err := s.Submit(simJob(fmt.Sprintf("bp%d", i), int64(i))); err != nil {
			t.Fatalf("submit %d into a queue with room: %v", i, err)
		}
	}
	if err := s.Submit(simJob("bp2", 2)); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit into a full shard queue: %v, want ErrBusy", err)
	}
	if got := s.Counters().Counter(CtrJobsRejected); got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}
	if h := s.Health(); len(h.ShardDepths) != 1 || h.ShardDepths[0] != 2 {
		t.Errorf("health shard depths = %v, want [2]", h.ShardDepths)
	}
	// The refused job was never resident: once the consumer moves again
	// the same submission is admitted and everything gets its verdict.
	release()
	for _, id := range []string{"pin-worker", "pin-loop", "bp0", "bp1"} {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	if err := s.Submit(simJob("bp2", 2)); err != nil {
		t.Fatalf("resubmit after the queue drained: %v", err)
	}
}

// TestOfferRejectsWhenShardQueueFull: samples meet the same bound as
// jobs, are counted as rejected, and leave the job's backlog untouched.
func TestOfferRejectsWhenShardQueueFull(t *testing.T) {
	s, release := pinnedService(t, Config{ShardDepth: 2}, func(s *Service) {
		if err := s.Submit(JobSpec{ID: "f", Stream: true}); err != nil {
			t.Fatalf("stream submit: %v", err)
		}
	})
	defer s.Close()
	defer release()
	batch := []StreamSample{{TUS: 1, Scrout: 0.5}, {TUS: 2, Scrout: 0.25}}
	for i := 0; i < 2; i++ {
		if err := s.Feed("f", batch); err != nil {
			t.Fatalf("feed %d into a queue with room: %v", i, err)
		}
	}
	if err := s.Feed("f", batch); !errors.Is(err, ErrBusy) {
		t.Fatalf("feed into a full shard queue: %v, want ErrBusy", err)
	}
	snap := s.Counters()
	if in, out := snap.Counter(CtrSamplesIn), snap.Counter(CtrSamplesDropped); in != 4 || out != 2 {
		t.Errorf("samples ingested/rejected = %d/%d, want 4/2", in, out)
	}
	s.mu.Lock()
	pending := s.jobs["f"].pending
	s.mu.Unlock()
	if pending != 4 {
		t.Errorf("backlog after a refused feed = %d samples, want 4", pending)
	}
}

// TestShardDrainLocksOncePerDrain: a drain of k sample envelopes runs
// them all without taking mu and then releases their backlog together —
// a constant number of acquisitions, however many envelopes were queued.
func TestShardDrainLocksOncePerDrain(t *testing.T) {
	s := New(Config{Run: fakeRun, Shards: 1})
	defer s.Close()
	if err := s.Submit(JobSpec{ID: "f", Stream: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	const k, n = 8, 64
	q := make(chan envelope, k)
	s.mu.Lock()
	j := s.jobs["f"]
	for i := 0; i < k; i++ {
		samples := make([]StreamSample, n)
		for m := range samples {
			samples[m] = StreamSample{TUS: int64(i*n + m), Scrout: float64(1+m%5) / 6}
		}
		q <- envelope{j: j, samples: samples}
		j.pending += n // what Feed accounts at admission
	}
	// mu stays held: a drain that needed it per envelope would stop at
	// the first one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.drainShard(0, <-q, q, nil)
	}()
	for deadline := time.Now().Add(5 * time.Second); len(q) > 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatalf("drain stopped with %d of %d envelopes queued: it takes mu per envelope", len(q), k)
		}
	}
	select {
	case <-done:
		s.mu.Unlock()
		t.Fatal("drain finished while mu was held: the backlog was never released")
	case <-time.After(20 * time.Millisecond):
	}
	if j.pending != k*n {
		t.Errorf("backlog released before the drain ended: %d, want %d", j.pending, k*n)
	}
	s.mu.Unlock()
	<-done
	s.mu.Lock()
	pending := j.pending
	s.mu.Unlock()
	if pending != 0 || j.mon.Samples() != k*n {
		t.Errorf("after the drain: backlog %d (want 0), monitor saw %d samples (want %d)", pending, j.mon.Samples(), k*n)
	}
}

func TestDrainDeliversAllVerdicts(t *testing.T) {
	slow := func(rc experiment.RunConfig) experiment.RunResult {
		time.Sleep(5 * time.Millisecond)
		return fakeRun(rc)
	}
	s := New(Config{Run: slow, Workers: 2})

	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Submit(simJob(fmt.Sprintf("d%d", i), int64(i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// A stream job that never fires must be closed out by the drain too.
	if err := s.Submit(JobSpec{ID: "stream", Stream: true}); err != nil {
		t.Fatalf("stream submit: %v", err)
	}
	if err := s.Feed("stream", []StreamSample{{TUS: 1, Scrout: 0.5}}); err != nil {
		t.Fatalf("feed: %v", err)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Submit(simJob("late", 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	vs := s.Verdicts()
	if len(vs) != n+1 {
		t.Fatalf("verdicts after drain = %d, want %d", len(vs), n+1)
	}
	if pending := s.Pending(); len(pending) != 0 {
		t.Fatalf("pending jobs after drain: %v", pending)
	}
	sv, ok, err := s.Verdict("stream")
	if err != nil || !ok {
		t.Fatalf("stream verdict: ok=%v err=%v", ok, err)
	}
	if !sv.Completed || sv.Report != nil || sv.Samples != 1 {
		t.Fatalf("stream close-out verdict = %+v, want completed no-hang with 1 sample", sv)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestStreamJobDetectsHang(t *testing.T) {
	s := New(Config{Run: fakeRun})
	defer s.Close()

	if err := s.Submit(JobSpec{ID: "feeder", Stream: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Healthy phase: alternating Scrout builds a model with a low
	// threshold; hang phase: a long streak of zeros must verify.
	var healthy []StreamSample
	for i := 0; i < 200; i++ {
		healthy = append(healthy, StreamSample{TUS: int64(i) * 400_000, Scrout: float64(1+i%5) / 6})
	}
	if err := s.Feed("feeder", healthy); err != nil {
		t.Fatalf("feed healthy: %v", err)
	}
	var hang []StreamSample
	for i := 0; i < 100; i++ {
		hang = append(hang, StreamSample{TUS: int64(200+i) * 400_000, Scrout: 0})
	}
	if err := s.Feed("feeder", hang); err != nil {
		t.Fatalf("feed hang: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, "feeder")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Report == nil {
		t.Fatal("stream job delivered no report for an all-zero Scrout streak")
	}
	if v.Report.Type != core.HangCommunication {
		t.Errorf("stream report type = %v, want communication (no probe plane)", v.Report.Type)
	}
	if v.Completed {
		t.Error("hang verdict marked Completed")
	}
	// Samples fed to a decided job are rejected, not buffered.
	if err := s.Feed("feeder", healthy[:1]); err == nil {
		t.Error("feed after verdict succeeded, want rejection")
	}
}

func TestStreamBacklogBound(t *testing.T) {
	// The wedged shard loop leaves fed samples queued, so the job's
	// backlog never drains and the per-job bound must trip.
	s, release := pinnedService(t, Config{StreamBacklog: 10}, func(s *Service) {
		if err := s.Submit(JobSpec{ID: "f", Stream: true}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	})
	defer s.Close()
	defer release()
	batch := make([]StreamSample, 6)
	if err := s.Feed("f", batch); err != nil {
		t.Fatalf("first feed: %v", err)
	}
	if err := s.Feed("f", batch); !errors.Is(err, ErrBacklog) {
		t.Fatalf("over-backlog feed error = %v, want ErrBacklog", err)
	}
	if err := s.Feed("unknown", batch); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown-job feed error = %v, want ErrUnknownJob", err)
	}
	if err := s.Feed("f", nil); err != nil {
		t.Fatalf("empty feed: %v", err)
	}
	// Once the shard moves again the backlog is released and the same
	// batch is welcome.
	release()
	waitUntil(t, "the backlog to be released", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs["f"].pending == 0
	})
	if err := s.Feed("f", batch); err != nil {
		t.Fatalf("feed after release: %v", err)
	}
}

func TestFeedToSimulationJobRejected(t *testing.T) {
	gate := make(chan struct{})
	stuck := func(rc experiment.RunConfig) experiment.RunResult { <-gate; return fakeRun(rc) }
	s := New(Config{Run: stuck, Workers: 1})
	defer s.Close()
	defer close(gate) // before Close: the drain waits for the gated run
	if err := s.Submit(simJob("sim", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Feed("sim", []StreamSample{{TUS: 1, Scrout: 0}}); !errors.Is(err, ErrNotStream) {
		t.Fatalf("feed to sim job error = %v, want ErrNotStream", err)
	}
}

// TestManyJobsSmoke is the race-enabled lifecycle smoke: many
// concurrent submitters and queriers against small queues, then a
// drain that must account for every admitted job exactly once.
func TestManyJobsSmoke(t *testing.T) {
	s := New(Config{
		Run:        fakeRun,
		Workers:    4,
		Shards:     3,
		ShardDepth: 8,
	})

	const clients, each = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := make(map[string]bool)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("c%d-%d", c, i)
				err := s.Submit(simJob(id, int64(c*each+i)))
				if err == nil {
					mu.Lock()
					admitted[id] = true
					mu.Unlock()
				} else if !errors.Is(err, ErrBusy) && !errors.Is(err, ErrQuota) {
					t.Errorf("submit %s: %v", id, err)
				}
				if i%7 == 0 {
					s.Verdicts() // concurrent queries must be safe
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	vs := s.Verdicts()
	if len(vs) != len(admitted) {
		t.Fatalf("verdicts = %d, admitted = %d", len(vs), len(admitted))
	}
	seen := make(map[string]bool)
	for _, v := range vs {
		if seen[v.JobID] {
			t.Fatalf("duplicate verdict for %s", v.JobID)
		}
		seen[v.JobID] = true
		if !admitted[v.JobID] {
			t.Fatalf("verdict for never-admitted job %s", v.JobID)
		}
		if v.Status != VerdictOK || !v.Completed {
			t.Errorf("job %s verdict = %+v, want completed ok", v.JobID, v)
		}
	}
	snap := s.Counters()
	if got := snap.Counter(CtrJobsCompleted); got != int64(len(admitted)) {
		t.Errorf("jobs_completed = %d, want %d", got, len(admitted))
	}
	if snap.Counter(CtrBatchesFlushed) == 0 {
		t.Error("batches_flushed = 0")
	}
}

// TestVerdictBitIdenticalToInProcessRun is the acceptance pin: a
// daemon-served simulation job's verdict — report, cause, and
// diagnosis — must be bit-identical to the same (workload, platform,
// fault, seed) configuration run through in-process experiment.Run.
func TestVerdictBitIdenticalToInProcessRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	const seed = 3
	s := New(Config{Workers: 2}) // real runs: per-worker experiment.Runner
	defer s.Close()
	if err := s.Submit(simJob("bit", seed)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := s.Wait(ctx, "bit")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	params := workload.MustLookup("CG", "D", 64)
	prof, err := noise.Lookup("tardis")
	if err != nil {
		t.Fatal(err)
	}
	direct := experiment.Run(experiment.RunConfig{
		Params:    params,
		Platform:  prof,
		Seed:      seed,
		FaultKind: fault.ComputationHang,
		Monitor:   &core.Config{},
	})

	if direct.Report == nil {
		t.Fatal("direct run reported nothing; pick a hanging configuration")
	}
	if !reflect.DeepEqual(v.Report, direct.Report) {
		t.Errorf("daemon report = %+v\ndirect report = %+v", v.Report, direct.Report)
	}
	if v.Cause != direct.Cause {
		t.Errorf("daemon cause = %q, direct cause = %q", v.Cause, direct.Cause)
	}
	if !reflect.DeepEqual(v.Diagnosis, direct.Diagnosis) {
		t.Errorf("daemon diagnosis = %+v\ndirect diagnosis = %+v", v.Diagnosis, direct.Diagnosis)
	}
	if v.Detected != direct.Detected || v.FalsePositive != direct.FalsePositive || v.Delay != direct.Delay {
		t.Errorf("daemon judgement (%v,%v,%v) != direct (%v,%v,%v)",
			v.Detected, v.FalsePositive, v.Delay, direct.Detected, direct.FalsePositive, direct.Delay)
	}
}

func TestRunPanicYieldsFailedVerdict(t *testing.T) {
	boom := func(rc experiment.RunConfig) experiment.RunResult { panic("boom") }
	s := New(Config{Run: boom, Retries: -1})
	defer s.Close()
	if err := s.Submit(simJob("p", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "p")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Status != VerdictFailed || v.Error == "" {
		t.Fatalf("verdict = %+v, want failed with error", v)
	}
	if got := s.Counters().Counter(CtrJobsFailed); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
}
