package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parastack/internal/detect"
	"parastack/internal/diagnose/waitfor"
	"parastack/internal/experiment"
	"parastack/internal/results"
)

// The backoff schedule is a pure function of (policy, key, attempt):
// these exact durations are pinned so any change to the hash mix or
// the growth curve is a visible, deliberate diff.
func TestRetryPolicyDelayDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.2, Seed: 42}
	cases := []struct {
		key     string
		attempt int
		want    time.Duration
	}{
		{"job-a", 1, 50129688},
		{"job-a", 2, 100259370},
		{"job-a", 3, 200518745},
		{"job-a", 4, 401037462},
		{"job-a", 5, 802074943},
		{"job-a", 6, 1002593607}, // capped at MaxDelay, then jittered
		{"job-b", 1, 49295437},
		{"job-b", 2, 98590881},
		{"job-b", 3, 197181757},
		{"job-b", 4, 394363468},
		{"job-b", 5, 788726916},
		{"job-b", 6, 985908717},
	}
	for _, c := range cases {
		if got := p.Delay(c.key, c.attempt); got != c.want {
			t.Errorf("Delay(%q, %d) = %d, want %d", c.key, c.attempt, got, c.want)
		}
		if again := p.Delay(c.key, c.attempt); again != c.want {
			t.Errorf("Delay(%q, %d) second call = %d, not deterministic", c.key, c.attempt, again)
		}
	}
	// Jitter disabled: pure exponential doubling, capped.
	q := RetryPolicy{JitterFrac: -1, MaxDelay: 300 * time.Millisecond}
	for i, want := range []time.Duration{50, 100, 200, 300, 300} {
		if got := q.Delay("x", i+1); got != want*time.Millisecond {
			t.Errorf("no-jitter Delay attempt %d = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	if got := q.Delay("x", -3); got != 50*time.Millisecond {
		t.Errorf("Delay with attempt<1 = %v, want BaseDelay", got)
	}
}

// The cause → retry-class mapping is policy, pinned by table: the
// structural causes fail fast, everything else is worth another try.
func TestRetryClassForCause(t *testing.T) {
	cases := []struct {
		cause string
		want  detect.RetryClass
	}{
		{string(waitfor.CauseDeadlock), detect.RetryNever},
		{string(waitfor.CauseCollectiveMismatch), detect.RetryNever},
		{string(waitfor.CauseStragglerChain), detect.RetryTransient},
		{string(waitfor.CauseLostMessage), detect.RetryTransient},
		{string(waitfor.CauseUnknown), detect.RetryTransient},
		{"", detect.RetryTransient},
	}
	for _, c := range cases {
		if got := detect.RetryClassForCause(c.cause); got != c.want {
			t.Errorf("RetryClassForCause(%q) = %v, want %v", c.cause, got, c.want)
		}
	}
	for class, want := range map[detect.RetryClass]string{
		detect.RetryNone: "none", detect.RetryNever: "never", detect.RetryTransient: "transient",
	} {
		if class.String() != want {
			t.Errorf("RetryClass(%d).String() = %q, want %q", class, class.String(), want)
		}
	}
}

// retryPolicyFast is a requeue policy quick enough for tests.
func retryPolicyFast(max int) RetryPolicy {
	return RetryPolicy{MaxAttempts: max, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, JitterFrac: -1}
}

// A panicking run is transient infrastructure: the supervisor requeues
// it until it succeeds or attempts run out.
func TestTransientFailureRetriedUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	flaky := func(rc experiment.RunConfig) experiment.RunResult {
		if calls.Add(1) < 3 {
			panic("transient worker failure")
		}
		return fakeRun(rc)
	}
	s := New(Config{Run: flaky, Retries: -1, Retry: retryPolicyFast(3), BreakerThreshold: -1})
	defer s.Close()
	if err := s.Submit(simJob("flaky", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "flaky")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Status != VerdictOK || !v.Completed {
		t.Fatalf("verdict after retries = %+v, want completed ok", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("run attempts = %d, want 3", got)
	}
	snap := s.Counters()
	if got := snap.Counter(CtrJobRetries); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := snap.Counter(CtrJobsFailed); got != 0 {
		t.Errorf("jobs_failed = %d, want 0", got)
	}
}

// Attempts are bounded: a persistently failing run ends as a failed
// verdict once MaxAttempts is consumed.
func TestRetriesExhaustedYieldFailedVerdict(t *testing.T) {
	var calls atomic.Int64
	boom := func(rc experiment.RunConfig) experiment.RunResult {
		calls.Add(1)
		panic("always broken")
	}
	s := New(Config{Run: boom, Retries: -1, Retry: retryPolicyFast(3), BreakerThreshold: -1})
	defer s.Close()
	if err := s.Submit(simJob("doomed", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "doomed")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Status != VerdictFailed || v.Error == "" {
		t.Fatalf("verdict = %+v, want failed", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("run attempts = %d, want MaxAttempts=3", got)
	}
}

// hangResult fabricates a hang verdict with the given wait-for cause.
func hangResult(cause string) experiment.RunResult {
	return experiment.RunResult{
		Report: &detect.Report{Suspicions: 7},
		Cause:  cause,
	}
}

// Structural hangs (deadlock, collective mismatch) are never requeued:
// re-running a program that cannot proceed wastes a slot to learn
// nothing.
func TestStructuralHangFailsFast(t *testing.T) {
	var calls atomic.Int64
	deadlock := func(rc experiment.RunConfig) experiment.RunResult {
		calls.Add(1)
		return hangResult(string(waitfor.CauseDeadlock))
	}
	s := New(Config{Run: deadlock, Retry: retryPolicyFast(5), BreakerThreshold: -1})
	defer s.Close()
	if err := s.Submit(simJob("dl", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "dl")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Report == nil || v.Cause != string(waitfor.CauseDeadlock) {
		t.Fatalf("verdict = %+v, want the deadlock report", v)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("run attempts = %d, want 1 (deadlock is fail-fast)", got)
	}
	if got := s.Counters().Counter(CtrJobRequeues); got != 0 {
		t.Errorf("requeues = %d, want 0", got)
	}
}

// A straggler-chain hang is plausibly noise-induced: the supervisor
// requeues it, and a clean second run supersedes the hang verdict.
func TestTransientHangRequeued(t *testing.T) {
	var calls atomic.Int64
	stragglerOnce := func(rc experiment.RunConfig) experiment.RunResult {
		if calls.Add(1) == 1 {
			return hangResult(string(waitfor.CauseStragglerChain))
		}
		return fakeRun(rc)
	}
	s := New(Config{Run: stragglerOnce, Retry: retryPolicyFast(3), BreakerThreshold: -1})
	defer s.Close()
	if err := s.Submit(simJob("strag", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "strag")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !v.Completed || v.Report != nil {
		t.Fatalf("verdict = %+v, want the clean re-run's", v)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("run attempts = %d, want 2", got)
	}
	if got := s.Counters().Counter(CtrJobRequeues); got != 1 {
		t.Errorf("requeues = %d, want 1", got)
	}
}

// If attempts run out while the last outcome is still a transient hang,
// that hang verdict — not a synthetic failure — is the final answer.
func TestTransientHangKeptWhenAttemptsExhausted(t *testing.T) {
	straggler := func(rc experiment.RunConfig) experiment.RunResult {
		return hangResult(string(waitfor.CauseStragglerChain))
	}
	s := New(Config{Run: straggler, Retry: retryPolicyFast(2), BreakerThreshold: -1})
	defer s.Close()
	if err := s.Submit(simJob("strag2", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := s.Wait(context.Background(), "strag2")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Status != VerdictOK || v.Report == nil || v.Cause != string(waitfor.CauseStragglerChain) {
		t.Fatalf("verdict = %+v, want the persistent straggler hang report", v)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: 50 * time.Millisecond}
	t0 := time.Unix(100, 0)
	if !b.allow(t0) {
		t.Fatal("fresh breaker refused dispatch")
	}
	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if b.record(false, t0) {
			t.Fatalf("breaker tripped after %d failures, threshold 3", i+1)
		}
	}
	// A success resets the consecutive count.
	b.record(true, t0)
	for i := 0; i < 2; i++ {
		if b.record(false, t0) {
			t.Fatal("breaker tripped early after reset")
		}
	}
	if !b.record(false, t0) {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if b.allow(t0) || !b.isOpen(t0) {
		t.Fatal("open breaker allowed dispatch inside cooldown")
	}
	// Cooldown elapsed: half-open admits exactly one probe.
	t1 := t0.Add(60 * time.Millisecond)
	if !b.allow(t1) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow(t1) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: straight back to open, counted as a trip.
	if !b.record(false, t1) {
		t.Fatal("failed probe did not re-trip the breaker")
	}
	if b.allow(t1.Add(10 * time.Millisecond)) {
		t.Fatal("re-opened breaker allowed dispatch inside the new cooldown")
	}
	// Next probe succeeds: closed again.
	t2 := t1.Add(60 * time.Millisecond)
	if !b.allow(t2) {
		t.Fatal("second half-open probe refused")
	}
	b.record(true, t2)
	if !b.allow(t2) || b.isOpen(t2) {
		t.Fatal("breaker not closed after successful probe")
	}
	// Disabled breaker is always a pass-through.
	var off *breaker
	if !off.allow(t0) || off.record(false, t0) || off.isOpen(t0) {
		t.Fatal("nil breaker interfered")
	}
}

// End-to-end breaker: consecutive panics trip the single shard's
// breaker, subsequent jobs bounce (requeue, then fail fast with the
// circuit-open error), and the trip is counted.
func TestBreakerTripsAndBouncesJobs(t *testing.T) {
	boom := func(rc experiment.RunConfig) experiment.RunResult { panic("poisoned shard") }
	s := New(Config{
		Run: boom, Retries: -1, Workers: 1, Shards: 1,
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Two failures trip the breaker (MaxAttempts 1: no requeue noise).
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("trip%d", i)
		if err := s.Submit(simJob(id, int64(i))); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	if got := s.Counters().Counter(CtrBreakerTrips); got != 1 {
		t.Fatalf("breaker_trips = %d, want 1", got)
	}
	if h := s.Health(); h.Status != "degraded" || len(h.OpenBreakers) != 1 {
		t.Fatalf("health with open breaker = %+v, want degraded with shard 0 open", h)
	}
	// The next job never reaches the (would-be panicking) run: it
	// bounces off the open circuit and fails fast.
	if err := s.Submit(simJob("bounced", 9)); err != nil {
		t.Fatalf("submit bounced: %v", err)
	}
	v, err := s.Wait(ctx, "bounced")
	if err != nil {
		t.Fatalf("wait bounced: %v", err)
	}
	if v.Status != VerdictFailed || !strings.Contains(v.Error, "circuit open") {
		t.Fatalf("bounced verdict = %+v, want circuit-open failure", v)
	}
}

// The per-job deadline fails a wedged job in place.
func TestJobDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	wedged := func(rc experiment.RunConfig) experiment.RunResult { <-gate; return fakeRun(rc) }
	s := New(Config{Run: wedged, Workers: 1, JobDeadline: 30 * time.Millisecond})
	if err := s.Submit(simJob("wedge", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, "wedge")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.Status != VerdictFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("verdict = %+v, want deadline failure", v)
	}
	if got := s.Counters().Counter(CtrDeadlineExpired); got != 1 {
		t.Errorf("deadline_expired = %d, want 1", got)
	}
}

// A drain that hits its hard deadline journals the stragglers as open
// (their admits are already there, no verdict closes them) and returns
// a DrainTimeoutError naming them — the recoverable-nonzero-exit path.
func TestDrainDeadlineJournalsStragglers(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	wedged := func(rc experiment.RunConfig) experiment.RunResult { <-gate; return fakeRun(rc) }
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, err := results.OpenJSONL(journalPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Config{Run: wedged, Workers: 1, Journal: jnl})
	if err := s.Submit(simJob("stuck", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	var dte *DrainTimeoutError
	if !errors.As(err, &dte) {
		t.Fatalf("drain past deadline = %v, want DrainTimeoutError", err)
	}
	if len(dte.Stragglers) != 1 || dte.Stragglers[0] != "stuck" {
		t.Fatalf("stragglers = %v, want [stuck]", dte.Stragglers)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DrainTimeoutError does not unwrap to the context error")
	}
	// The journal replays the straggler as open: a restart re-runs it.
	recs, err := results.ReadJSONL(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := ReplayJournal(recs)
	if len(rep.Open) != 1 || rep.Open[0].ID != "stuck" || len(rep.Decided) != 0 {
		t.Fatalf("journal replay = %s, want the straggler open", rep)
	}
	if h := s.Health(); h.Status != "draining" {
		t.Errorf("health during drain = %q, want draining", h.Status)
	}
}
