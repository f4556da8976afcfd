package service

import (
	"fmt"
	"hash/fnv"
	"time"

	"parastack/internal/detect"
	"parastack/internal/sweep"
)

// RetryPolicy bounds and paces the supervisor's requeue loop.
// The zero value means "one attempt, no requeue" — supervision is
// opt-in per deployment. Delay is exponential with a deterministic,
// seeded jitter: same (Seed, key, attempt) → same delay, which is what
// makes retry schedules reproducible in tests and across a
// crash-recovery replay.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions a job may consume,
	// initial dispatch included (<= 1: never requeue).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; attempt n
	// waits BaseDelay·2^(n-1), capped at MaxDelay (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = 5s).
	MaxDelay time.Duration
	// JitterFrac scatters each delay uniformly within ±JitterFrac of
	// its nominal value (0 = 0.2; negative = no jitter).
	JitterFrac float64
	// Seed drives the jitter; a fixed seed pins the whole schedule.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	return p
}

// Delay returns the backoff before attempt+1, given that attempt
// attempts (1-based) have already run for key. It is a pure function
// of (policy, key, attempt): exponential growth from BaseDelay, capped
// at MaxDelay, scattered by a jitter drawn from an FNV-64 hash of
// (Seed, key, attempt) — deterministic, so table tests can pin exact
// durations and two replicas never agree on a thundering herd.
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 {
		// Uniform in [-JitterFrac, +JitterFrac), seeded and key-mixed.
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d", p.Seed, key, attempt)
		u := float64(h.Sum64()>>11) / float64(1<<53) // [0, 1)
		d = time.Duration(float64(d) * (1 + p.JitterFrac*(2*u-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DrainTimeoutError reports a Drain that hit its hard deadline with
// jobs still undecided. The stragglers were flushed to the admission
// journal as open entries, so a restart with the same journal recovers
// and re-runs them; the caller should exit nonzero.
type DrainTimeoutError struct {
	// Stragglers are the still-open job IDs, sorted.
	Stragglers []string
	// Cause is the context error that expired the drain.
	Cause error
}

func (e *DrainTimeoutError) Error() string {
	return fmt.Sprintf("service: drain deadline expired with %d undecided job(s) (journaled as open, recoverable on restart): %v",
		len(e.Stragglers), e.Cause)
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) keeps working.
func (e *DrainTimeoutError) Unwrap() error { return e.Cause }

// dispatch hands one simulation job to the worker pool — unless the
// shard's circuit breaker refuses, in which case the job bounces
// straight back to the supervisor as a transient infrastructure
// failure (requeued with backoff while the breaker cools, failed fast
// once its attempts run out). The breaker sees only real run outcomes:
// a bounce is not a failure, so a tripped breaker cannot feed itself.
func (s *Service) dispatch(shard int, j *job) {
	if !s.breakers[shard].allow(time.Now()) {
		s.complete(j, sweep.Record{
			Status: sweep.StatusFailed,
			Error:  fmt.Sprintf("service: shard %d circuit open", shard),
		})
		return
	}
	s.pool.Submit(sweep.Task{Key: j.key, Config: j.rc}, func(rec sweep.Record) {
		if s.breakers[shard].record(rec.Status == sweep.StatusOK, time.Now()) {
			s.count(CtrBreakerTrips, 1)
		}
		s.complete(j, rec)
	})
}

// complete is the supervisor's decision point for one finished attempt:
// map the outcome to a retry class, requeue transient failures while
// attempts remain, and decide everything else. The class comes from the
// run itself (experiment.RunResult.RetryClass — the wait-for cause
// feeding back into scheduling policy); a panicked worker or an open
// circuit has no result and is transient infrastructure by definition.
func (s *Service) complete(j *job, rec sweep.Record) {
	v := Verdict{JobID: j.spec.ID, Key: j.key, Status: VerdictFailed, Error: rec.Error}
	class := detect.RetryTransient
	if rec.Status == sweep.StatusOK && rec.Result != nil {
		v = verdictFromResult(j.spec.ID, j.key, rec.Result)
		class = rec.Result.RetryClass()
	}
	if class == detect.RetryTransient && s.requeue(j, v) {
		return
	}
	s.decide(j, v)
}

// requeue schedules one more attempt for j after its deterministic
// backoff, recording v as the latest outcome (the final answer if the
// drain or a deadline cuts the retry loop short). It refuses — and the
// caller must decide v instead — when attempts are exhausted, the
// service is draining, or the job is already decided.
func (s *Service) requeue(j *job, v Verdict) bool {
	p := s.cfg.Retry
	s.mu.Lock()
	j.attempt++
	if s.draining || j.isDecided() || j.attempt >= p.MaxAttempts {
		j.last, j.hasLast = v, true
		s.mu.Unlock()
		return false
	}
	j.last, j.hasLast = v, true
	delay := p.Delay(j.spec.ID, j.attempt)
	j.retryTimer = time.AfterFunc(delay, func() { s.refire(j) })
	s.mu.Unlock()
	if v.Report != nil {
		// A hang verdict whose cause says "plausibly transient": the
		// scheduler-style requeue the diagnosis layer was built for.
		s.count(CtrJobRequeues, 1)
	} else {
		s.count(CtrJobRetries, 1)
	}
	return true
}

// refire puts a requeued job back on its shard queue when its backoff
// expires. Offers happen under mu (the Submit rule: Drain flips
// draining under the same lock before closing the queues, so a refire
// can never hit a closed one); a full queue re-arms the timer without
// consuming an attempt — backpressure delays a retry, it doesn't spend
// it.
func (s *Service) refire(j *job) {
	s.mu.Lock()
	j.retryTimer = nil
	if j.isDecided() {
		s.mu.Unlock()
		return
	}
	if s.draining {
		last := j.last
		s.mu.Unlock()
		s.decide(j, last)
		return
	}
	if !s.offer(envelope{j: j, enq: time.Now()}) {
		j.retryTimer = time.AfterFunc(s.cfg.Retry.BaseDelay, func() { s.refire(j) })
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// expire enforces the per-job deadline: a job still undecided when its
// deadline fires is failed in place. The attempt that may still be
// running on a pool worker finishes into a no-op (decide is
// idempotent), so one wedged run can no longer hold its client — or
// the drain path — hostage.
func (s *Service) expire(j *job) {
	if j.isDecided() {
		return
	}
	s.count(CtrDeadlineExpired, 1)
	s.decide(j, Verdict{
		JobID:  j.spec.ID,
		Key:    j.key,
		Status: VerdictFailed,
		Error:  fmt.Sprintf("service: job deadline (%s) exceeded", s.cfg.JobDeadline),
	})
}
