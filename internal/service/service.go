// Package service turns the ParaStack library into a long-running,
// multi-tenant hang-detection daemon: many logical jobs — each a
// (workload, platform, fault, seed) simulation or an external Scrout
// feeder — multiplexed over one sharded worker pool.
//
// The pipeline is:
//
//	Submit/Feed ──► admission (validate, quota) ──► the job's
//	    shard queue (bounded) ──► shard loop ──► sweep.Pool workers
//	    (per-worker experiment.Runner) / StreamMonitor feeds ──►
//	    verdict store ──► Verdict / Verdicts queries
//
// Every stage is bounded, and saturation propagates backwards: busy
// workers stall the shard loops, and a full shard queue rejects
// admission (ErrBusy) for the jobs that hash to it. Jobs beyond the
// residency quota are rejected up front (ErrQuota), and each stream
// job's unprocessed samples are capped (ErrBacklog). A job's identity
// is sharded by FNV hash, so one job's envelopes are always processed
// in order by a single shard; a shard loop takes everything its queue
// holds in one drain, so the per-envelope cost under load is a channel
// receive, not a lock or a timer.
//
// Determinism carries through from the library: a simulation job's
// verdict is bit-identical to the same configuration run through
// experiment.Run in-process, because admission materializes the same
// RunConfig a grid sweep would and the pool's per-worker Runners are
// pinned bit-identical to fresh runs.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/obs"
	"parastack/internal/results"
	"parastack/internal/sweep"
)

// Counter names the service reports through its recorder.
const (
	CtrJobsAdmitted   = "service.jobs_admitted"    // jobs past admission
	CtrJobsRejected   = "service.jobs_rejected"    // submissions refused (quota, busy, invalid, duplicate)
	CtrJobsCompleted  = "service.jobs_completed"   // verdicts reached (ok)
	CtrJobsFailed     = "service.jobs_failed"      // verdicts reached (run panicked)
	CtrBatchesFlushed = "service.batches_flushed"  // shard drains (one or more queued envelopes taken together)
	CtrSamplesIn      = "service.samples_ingested" // stream samples accepted
	CtrSamplesDropped = "service.samples_rejected" // stream samples refused (backlog, busy, bad value)
	CtrVerdictsServed = "service.verdicts_served"  // verdict query responses
	CtrSinkAppends    = "service.sink_appends"     // verdicts appended to the results sink
	CtrSinkErrors     = "service.sink_errors"      // results-sink append failures (verdict still served)

	// Supervision counters (journal, recovery, retries, breakers).
	CtrJobsRecovered   = "service.jobs_recovered"   // open jobs re-admitted by a journal replay
	CtrJobRetries      = "service.retries"          // transient-infra re-dispatches scheduled (panic, circuit open)
	CtrJobRequeues     = "service.requeues"         // cause-driven requeues of transient hang verdicts
	CtrBreakerTrips    = "service.breaker_trips"    // shard circuit breakers tripped open
	CtrJournalAppends  = "service.journal_appends"  // admission/verdict journal records written
	CtrJournalErrors   = "service.journal_errors"   // journal append failures
	CtrDeadlineExpired = "service.deadline_expired" // jobs failed by the per-job deadline
)

// Admission errors. The HTTP handler maps these onto statuses
// (statusOf), so clients tell "retry later" (503: ErrBusy, ErrBacklog,
// ErrQuota, ErrDraining) from "fix your request" (400 validation, 409
// duplicates).
var (
	// ErrQuota rejects a submission that would exceed Config.MaxJobs
	// resident jobs.
	ErrQuota = errors.New("service: job quota exhausted")
	// ErrBusy rejects an envelope because its job's shard queue is
	// full — the backpressure signal of a slow consumer.
	ErrBusy = errors.New("service: ingest saturated, retry later")
	// ErrBacklog rejects stream samples because the job's bounded
	// sample queue is full.
	ErrBacklog = errors.New("service: stream backlog full, retry later")
	// ErrDraining rejects intake on a service that is shutting down.
	ErrDraining = errors.New("service: draining")
	// ErrUnknownJob rejects samples or queries for a job never admitted.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrDuplicate rejects a submission reusing a resident job ID.
	ErrDuplicate = errors.New("service: duplicate job id")
	// ErrNotStream rejects samples fed to a simulation job.
	ErrNotStream = errors.New("service: job is not a stream job")
	// ErrBadSample rejects a fed batch holding a Scrout value no
	// collector can observe: NaN, ±Inf or negative. The whole batch is
	// refused, so the job's stream has no hole the feeder did not make.
	ErrBadSample = errors.New("service: scrout sample is not a finite non-negative number")
	// ErrJournal rejects a submission whose admission record could not
	// be journaled — the journal-before-ack invariant forbids telling
	// the client "accepted" when a crash right now would lose the job.
	// The job is withdrawn from the pipeline; the client may retry.
	ErrJournal = errors.New("service: admission journal append failed")
)

// Config tunes a Service. The zero value selects serviceable defaults.
type Config struct {
	// Workers bounds the simulation worker pool (0 = GOMAXPROCS).
	Workers int
	// Shards is the number of routing shards, each with its own bounded
	// queue and loop (0 = min(Workers, 4)).
	Shards int
	// MaxJobs is the residency quota: jobs admitted but not yet
	// decided (0 = 1024).
	MaxJobs int
	// ShardDepth bounds each shard's queue (0 = 64).
	ShardDepth int
	// StreamBacklog caps one stream job's unprocessed samples (0 = 4096).
	StreamBacklog int
	// Retries is re-execution of panicking runs, in the sweep.Options
	// encoding (0 = default 1, negative = none; see
	// sweep.LiteralRetries).
	Retries int
	// Recorder receives the service counters (nil = a private
	// metrics-only recorder). Access is serialized by the service.
	Recorder obs.Recorder
	// Run overrides the run executor (tests inject fakes; nil = each
	// pool worker owns an experiment.Runner).
	Run func(experiment.RunConfig) experiment.RunResult
	// Sink, when non-nil, receives every decided verdict as one JSON
	// record keyed "verdict|<job id>" — a ledger here makes the
	// daemon's verdict history tamper-evident and psverify-auditable.
	// Append failures are counted (CtrSinkErrors) but never block or
	// fail the verdict itself; the sink's lifecycle belongs to the
	// caller (close it after Drain).
	Sink results.Sink

	// Journal, when non-nil, is the durable admission journal: every
	// accepted job is appended before the client sees success
	// (journal-before-ack; a failed append withdraws the job and
	// returns ErrJournal), and every verdict is appended before it
	// reaches Sink. Recover replays a Reader over the same records to
	// survive a crash with exactly-once verdicts. Use results.OpenJSONL
	// for a plain file journal or a ledger.Ledger for a tamper-evident
	// one; the sink's lifecycle belongs to the caller (close after
	// Drain).
	Journal results.Sink
	// Retry is the supervisor's requeue policy for transient outcomes —
	// panicked workers, open shard circuits, and hang verdicts whose
	// wait-for cause is plausibly transient (straggler chains, lost
	// messages, unknown). Structural causes (deadlock, collective
	// mismatch) are never requeued. The zero value never requeues.
	Retry RetryPolicy
	// JobDeadline, when positive, bounds each simulation job's
	// admission-to-verdict time; on expiry the job is failed in place
	// ("job deadline exceeded") even if its run is still wedged on a
	// worker. Stream jobs — externally paced by their feeders — are
	// exempt.
	JobDeadline time.Duration
	// BreakerThreshold is the consecutive-run-failure count that trips
	// one shard's circuit breaker open (0 = 5, negative = breakers
	// disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe (0 = 5s).
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = c.Workers
		if c.Shards > 4 {
			c.Shards = 4
		}
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.ShardDepth <= 0 {
		c.ShardDepth = 64
	}
	if c.StreamBacklog <= 0 {
		c.StreamBacklog = 4096
	}
	if c.Recorder == nil {
		c.Recorder = obs.New(nil)
	}
	c.Retry = c.Retry.withDefaults()
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// envelope is one admitted ingest item: a job admission (samples nil)
// or a stream-sample payload for an already-admitted job.
type envelope struct {
	j       *job
	samples []StreamSample
	enq     time.Time
}

// job is one resident job's state.
type job struct {
	spec JobSpec
	key  string
	rc   experiment.RunConfig

	mon     *StreamMonitor // stream jobs only
	pending int            // unprocessed stream samples (guarded by Service.mu)

	enq        time.Time
	dispatched time.Time

	// Supervision state, guarded by Service.mu.
	attempt    int         // finished dispatch attempts
	last       Verdict     // latest attempt's outcome (final if retries are cut short)
	hasLast    bool        // last is meaningful
	retryTimer *time.Timer // pending backoff requeue, nil otherwise
	deadline   *time.Timer // per-job deadline, nil when unbounded
	recovered  bool        // re-admitted by Recover (admit already journaled)
	withdrawn  bool        // journal-before-ack failed: skip dispatch, record no verdict

	// journaled is closed once Submit has the admit record durable (or
	// has withdrawn the job); the shard holds the job until then, so a
	// verdict can never precede its admit record in the journal nor
	// outrun a withdrawal. nil when nothing is being journaled.
	journaled chan struct{}

	done    chan struct{} // closed when the verdict lands
	verdict Verdict
}

// Service is the multi-tenant detection engine. Construct with New,
// feed with Submit/Feed, query with Verdict/Verdicts, and shut down
// with Drain (graceful) or Close.
type Service struct {
	cfg      Config
	pool     *sweep.Pool
	shards   []chan envelope
	shardWG  sync.WaitGroup
	breakers []*breaker
	journal  *journal // nil when Config.Journal is nil

	mu       sync.Mutex
	jobs     map[string]*job // resident (undecided) jobs
	decided  map[string]*job // jobs with a verdict
	order    []string        // decision order of decided jobs
	nextSeq  int64           // next verdict Seq (monotone; recovery advances it)
	resident int
	draining bool

	recMu sync.Mutex
	rec   obs.Recorder
}

// New starts a service: the worker pool and the shard loops.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		decided: make(map[string]*job),
		nextSeq: 1,
		rec:     cfg.Recorder,
	}
	if cfg.Journal != nil {
		s.journal = &journal{sink: cfg.Journal}
	}
	s.pool = sweep.NewPool(sweep.Options{
		Workers:  cfg.Workers,
		Retries:  cfg.Retries,
		Recorder: obs.New(nil), // pool counters are internal; service counters are the surface
		Run:      cfg.Run,
	})
	s.breakers = newBreakers(cfg.Shards, cfg.BreakerThreshold, cfg.BreakerCooldown)
	s.shards = make([]chan envelope, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = make(chan envelope, cfg.ShardDepth)
		s.shardWG.Add(1)
		go s.shardLoop(i, s.shards[i])
	}
	return s
}

// count serializes recorder access (obs.Basic is single-goroutine).
func (s *Service) count(name string, delta int64) {
	s.recMu.Lock()
	s.rec.Count(name, delta)
	s.recMu.Unlock()
}

// Counters snapshots the service's observability counters.
func (s *Service) Counters() obs.Snapshot {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.rec.Snapshot()
}

// Submit validates and admits one job. On return the job is resident
// AND — when a journal is configured — durably journaled: it WILL
// receive a verdict (success, failure, or — for stream jobs — a
// drain-time close-out), and a daemon crash before that verdict leaves
// an open journal entry Recover re-runs. Errors mean the job was not
// admitted (an ErrJournal submission is withdrawn before dispatch).
func (s *Service) Submit(js JobSpec) error {
	if js.ID == "" {
		s.count(CtrJobsRejected, 1)
		return fmt.Errorf("service: job needs an id")
	}
	j := &job{spec: js, enq: time.Now(), done: make(chan struct{})}
	if err := j.materialize(); err != nil {
		s.count(CtrJobsRejected, 1)
		return err
	}

	// Admission is atomic under mu — including the shard-queue offer —
	// so Drain (which flips draining under the same mu before closing
	// the queues) can never close one between an admission check and
	// its offer.
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.count(CtrJobsRejected, 1)
		return ErrDraining
	case s.jobs[js.ID] != nil || s.decided[js.ID] != nil:
		s.mu.Unlock()
		s.count(CtrJobsRejected, 1)
		return ErrDuplicate
	case s.resident >= s.cfg.MaxJobs:
		s.mu.Unlock()
		s.count(CtrJobsRejected, 1)
		return ErrQuota
	}
	if s.journal != nil {
		j.journaled = make(chan struct{})
		defer close(j.journaled)
	}
	if !s.offer(envelope{j: j, enq: j.enq}) {
		s.mu.Unlock()
		s.count(CtrJobsRejected, 1)
		return ErrBusy
	}
	s.jobs[js.ID] = j
	s.resident++
	s.mu.Unlock()

	// Journal-before-ack: the admit record must be durable before the
	// client hears "accepted". On append failure the job is withdrawn —
	// pulled back out of residency and skipped by its shard — so the
	// rejection the client sees is the truth.
	if s.journal != nil {
		if err := s.journal.admit(js); err != nil {
			s.mu.Lock()
			j.withdrawn = true
			delete(s.jobs, js.ID)
			s.resident--
			s.mu.Unlock()
			s.count(CtrJournalErrors, 1)
			s.count(CtrJobsRejected, 1)
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
		s.count(CtrJournalAppends, 1)
	}
	s.armDeadline(j)
	s.count(CtrJobsAdmitted, 1)
	return nil
}

// armDeadline starts j's per-job deadline timer (simulation jobs only;
// stream jobs are externally paced).
func (s *Service) armDeadline(j *job) {
	if s.cfg.JobDeadline <= 0 || j.mon != nil {
		return
	}
	s.mu.Lock()
	if !j.isDecided() && !j.withdrawn {
		j.deadline = time.AfterFunc(s.cfg.JobDeadline, func() { s.expire(j) })
	}
	s.mu.Unlock()
}

// Feed ingests Scrout samples for a resident stream job. Samples are
// processed asynchronously, in order, by the job's shard; the per-job
// backlog is bounded by Config.StreamBacklog. A refused batch is
// counted as dropped, whole.
func (s *Service) Feed(jobID string, samples []StreamSample) error {
	if len(samples) == 0 {
		return nil
	}
	if err := s.enqueue(jobID, samples); err != nil {
		s.count(CtrSamplesDropped, int64(len(samples)))
		return err
	}
	s.count(CtrSamplesIn, int64(len(samples)))
	return nil
}

// enqueue validates a sample batch and puts it on its job's shard
// queue, or says why not.
func (s *Service) enqueue(jobID string, samples []StreamSample) error {
	for _, smp := range samples {
		// !(x >= 0) is true of NaN, -Inf and every negative, false of -0.
		if !(smp.Scrout >= 0) || math.IsInf(smp.Scrout, 1) {
			return fmt.Errorf("%w: got %v", ErrBadSample, smp.Scrout)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobID]
	switch {
	case j == nil && s.decided[jobID] != nil:
		return fmt.Errorf("service: job %q already decided", jobID)
	case j == nil:
		return ErrUnknownJob
	case j.mon == nil:
		return ErrNotStream
	case s.draining:
		return ErrDraining
	case j.pending+len(samples) > s.cfg.StreamBacklog:
		return ErrBacklog
	case !s.offer(envelope{j: j, samples: samples, enq: time.Now()}):
		return ErrBusy
	}
	j.pending += len(samples)
	return nil
}

// offer puts one envelope on its job's shard queue without blocking;
// false means the queue is full (backpressure). Callers hold mu and
// have seen draining false, so the queue is open.
func (s *Service) offer(e envelope) bool {
	select {
	case s.shards[shardOf(e.j.spec.ID, len(s.shards))] <- e:
		return true
	default:
		return false
	}
}

// shardOf maps a job ID onto its shard by 32-bit FNV-1a hash, computed
// inline (hash/fnv costs a hasher and a []byte per envelope). The
// assignment fixes journal replay order, so it is pinned against
// hash/fnv in the tests.
func shardOf(id string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h) % shards
}

// shardLoop serves one shard queue: dispatching simulation jobs to the
// worker pool (blocking while all workers are busy — the pool's
// backpressure) and feeding stream samples to their monitors. Each
// dispatch goes through the shard's circuit breaker and, on
// completion, the supervisor's retry policy (supervisor.go).
func (s *Service) shardLoop(idx int, q chan envelope) {
	defer s.shardWG.Done()
	var fed []envelope
	for e := range q {
		fed = s.drainShard(idx, e, q, fed[:0])
	}
}

// drainShard handles first and then whatever else q already holds, up
// to its capacity, without blocking. Sample envelopes run back to back
// with no lock taken (the monitor belongs to this shard; isDecided is a
// channel poll), and the backlog they occupied is released for all of
// them together, under one mu acquisition, when the drain ends: a
// feeder that found the backlog full finds all of it free again, and
// the lock is taken once per drain rather than once per envelope. fed
// is the scratch list of those envelopes, returned for reuse.
func (s *Service) drainShard(idx int, first envelope, q chan envelope, fed []envelope) []envelope {
	s.count(CtrBatchesFlushed, 1)
	e, ok := first, true
	for n := 0; ok; n++ {
		if e.samples == nil {
			s.admitShard(idx, e.j)
		} else if !e.j.isDecided() {
			s.feedShard(e.j, e.samples)
			fed = append(fed, e)
		}
		if n == cap(q) {
			break
		}
		select {
		case e, ok = <-q: // closed: the loop's range sees it next
		default:
			ok = false
		}
	}
	if len(fed) > 0 {
		s.mu.Lock()
		for i, e := range fed {
			e.j.pending -= len(e.samples)
			fed[i] = envelope{} // the scratch list must not pin the feeder's slices
		}
		s.mu.Unlock()
	}
	return fed
}

// admitShard handles a job's admission envelope: a stream job is
// simply attached (later envelopes feed it), a simulation job goes to
// the worker pool.
func (s *Service) admitShard(idx int, j *job) {
	if j.journaled != nil {
		<-j.journaled // journal-before-dispatch, see job.journaled
	}
	s.mu.Lock()
	skip := j.withdrawn || j.isDecided()
	if !skip {
		j.dispatched = time.Now()
	}
	s.mu.Unlock()
	if !skip && j.mon == nil {
		s.dispatch(idx, j)
	}
}

// feedShard runs one sample batch through a stream job's monitor and
// decides the job if the significance test fires.
func (s *Service) feedShard(j *job, samples []StreamSample) {
	var fired bool
	for _, smp := range samples {
		if j.mon.Ingest(smp) != nil {
			fired = true
		}
	}
	if fired {
		s.decide(j, Verdict{
			JobID:   j.spec.ID,
			Status:  VerdictOK,
			Report:  j.mon.Report(),
			Samples: j.mon.Samples(),
		})
	}
}

// isDecided reports whether the job's verdict has landed.
func (j *job) isDecided() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// decide records a job's verdict, moves it out of residency, wakes
// waiters, journals the close-out, and streams the verdict to the
// results sink (if one is configured) — in that order: a verdict that
// reached the sink is always also in the journal, which is what makes
// a crash between the two recoverable exactly-once. Seq — the
// /verdicts pagination cursor — is assigned here, under the same lock
// that fixes the decision order, so cursors and decision order can
// never disagree. install carries a recovery verdict's journaled Seq
// through unchanged.
func (s *Service) decide(j *job, v Verdict) { s.install(j, v, false) }

func (s *Service) install(j *job, v Verdict, keepSeq bool) {
	s.mu.Lock()
	if j.isDecided() || j.withdrawn {
		s.mu.Unlock()
		return
	}
	if !keepSeq {
		if !j.dispatched.IsZero() {
			v.IngestUS = j.dispatched.Sub(j.enq).Microseconds()
		}
		v.Seq = s.nextSeq
	}
	if v.Seq >= s.nextSeq {
		s.nextSeq = v.Seq + 1
	}
	if j.retryTimer != nil {
		j.retryTimer.Stop()
		j.retryTimer = nil
	}
	if j.deadline != nil {
		j.deadline.Stop()
		j.deadline = nil
	}
	j.verdict = v
	delete(s.jobs, j.spec.ID)
	s.decided[j.spec.ID] = j
	s.order = append(s.order, j.spec.ID)
	s.resident--
	// Count before close(j.done) releases Wait, so a caller that saw
	// the verdict also sees it counted.
	if v.Status == VerdictFailed {
		s.count(CtrJobsFailed, 1)
	} else {
		s.count(CtrJobsCompleted, 1)
	}
	close(j.done)
	s.mu.Unlock()
	// Journal the verdict before the sink sees it (see the ordering
	// argument above). A journal append failure is counted but does not
	// block the verdict: the job stays open in the journal and a
	// post-crash recovery re-runs it to the same (deterministic) answer.
	if s.journal != nil && !keepSeq {
		if err := s.journal.verdict(v); err != nil {
			s.count(CtrJournalErrors, 1)
		} else {
			s.count(CtrJournalAppends, 1)
		}
	}
	if s.cfg.Sink != nil {
		if err := s.appendVerdict(v); err != nil {
			s.count(CtrSinkErrors, 1)
		} else {
			s.count(CtrSinkAppends, 1)
		}
	}
}

// appendVerdict writes one verdict through the results sink, keyed so
// that a restarted daemon appending the same job id lands on the same
// ledger key (last record wins, the sweep-log rule).
func (s *Service) appendVerdict(v Verdict) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.cfg.Sink.Append(results.Record{Key: "verdict|" + v.JobID, Payload: payload})
}

// Verdict returns the job's verdict. ok is false while the job is
// still in flight; err is ErrUnknownJob for an ID never admitted.
func (s *Service) Verdict(jobID string) (Verdict, bool, error) {
	s.mu.Lock()
	j, decided := s.decided[jobID]
	_, resident := s.jobs[jobID]
	s.mu.Unlock()
	if decided {
		s.count(CtrVerdictsServed, 1)
		return j.verdict, true, nil
	}
	if resident {
		return Verdict{}, false, nil
	}
	return Verdict{}, false, ErrUnknownJob
}

// Wait blocks until the job's verdict lands or the context ends.
func (s *Service) Wait(ctx context.Context, jobID string) (Verdict, error) {
	s.mu.Lock()
	j := s.decided[jobID]
	if j == nil {
		j = s.jobs[jobID]
	}
	s.mu.Unlock()
	if j == nil {
		return Verdict{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		s.count(CtrVerdictsServed, 1)
		return j.verdict, nil
	case <-ctx.Done():
		return Verdict{}, ctx.Err()
	}
}

// Verdicts returns every decided job's verdict in decision order —
// unbounded, for in-process callers (drain summaries, tests). The
// HTTP surface never serves this directly: it pages through
// VerdictsPage so a long-running daemon cannot OOM a scraper.
func (s *Service) Verdicts() []Verdict {
	s.mu.Lock()
	out := make([]Verdict, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.decided[id].verdict)
	}
	s.mu.Unlock()
	s.count(CtrVerdictsServed, int64(len(out)))
	return out
}

// Pagination bounds for VerdictsPage and GET /verdicts.
const (
	// DefaultVerdictsLimit is the page size when the client names none.
	DefaultVerdictsLimit = 1000
	// MaxVerdictsLimit caps any client-requested page size.
	MaxVerdictsLimit = 10000
)

// VerdictsPage returns up to limit decided verdicts with Seq > after,
// in decision order, plus whether more remain. Seq is assigned at
// decision time and is strictly increasing along the decision order —
// dense in an uninterrupted run, possibly sparse after a crash
// recovery (recovered verdicts keep their pre-crash Seqs) — so a
// scraper pages with after = the last verdict's Seq regardless. limit
// outside (0, MaxVerdictsLimit] selects DefaultVerdictsLimit or the
// cap respectively.
func (s *Service) VerdictsPage(after int64, limit int) ([]Verdict, bool) {
	if limit <= 0 {
		limit = DefaultVerdictsLimit
	}
	if limit > MaxVerdictsLimit {
		limit = MaxVerdictsLimit
	}
	s.mu.Lock()
	// Seqs increase along s.order (recovery installs its replayed
	// verdicts in Seq order before any new decision), so the first
	// verdict with Seq > after is found by binary search.
	start := sort.Search(len(s.order), func(i int) bool {
		return s.decided[s.order[i]].verdict.Seq > after
	})
	end := start + limit
	if end > len(s.order) {
		end = len(s.order)
	}
	out := make([]Verdict, 0, end-start)
	for _, id := range s.order[start:end] {
		out = append(out, s.decided[id].verdict)
	}
	more := end < len(s.order)
	s.mu.Unlock()
	s.count(CtrVerdictsServed, int64(len(out)))
	return out, more
}

// Pending returns the IDs of resident (undecided) jobs, sorted.
func (s *Service) Pending() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Drain performs a graceful shutdown: stop admitting, drain every
// shard queue, wait for every in-flight run,
// finalize retry-parked jobs with their latest outcome, and close out
// still-undecided stream jobs with a no-hang verdict — so after Drain
// returns nil, every job ever admitted has a queryable verdict. The
// context is the hard drain deadline: on expiry the pipeline keeps
// draining in the background, but the still-undecided jobs are flushed
// to the admission journal as open entries (recoverable on restart)
// and Drain returns a *DrainTimeoutError naming them — the caller
// should exit nonzero.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, q := range s.shards {
			close(q)
		}
		s.shardWG.Wait()
		s.pool.Close()
		// Finalize jobs parked on a retry backoff: no more attempts are
		// coming, so their latest outcome is the final answer.
		s.mu.Lock()
		var parked []*job
		for _, j := range s.jobs {
			if j.hasLast && j.mon == nil {
				if j.retryTimer != nil {
					j.retryTimer.Stop()
					j.retryTimer = nil
				}
				parked = append(parked, j)
			}
		}
		s.mu.Unlock()
		sort.Slice(parked, func(a, b int) bool { return parked[a].spec.ID < parked[b].spec.ID })
		for _, j := range parked {
			s.decide(j, j.last)
		}
		// Close out stream jobs that never fired: their feeders are
		// gone; "no hang observed over N samples" is the final answer.
		s.mu.Lock()
		var leftover []*job
		for _, j := range s.jobs {
			if j.mon != nil {
				leftover = append(leftover, j)
			}
		}
		s.mu.Unlock()
		sort.Slice(leftover, func(a, b int) bool { return leftover[a].spec.ID < leftover[b].spec.ID })
		for _, j := range leftover {
			s.decide(j, Verdict{
				JobID:     j.spec.ID,
				Status:    VerdictOK,
				Completed: true,
				Report:    j.mon.Report(),
				Samples:   j.mon.Samples(),
			})
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Hard deadline: the stragglers' admit records are already in
		// the journal (journal-before-ack) with no verdict, i.e. open.
		// Force the journal durable so a restart recovers them, and name
		// them in the error.
		stragglers := s.Pending()
		if s.journal != nil {
			_ = s.journal.flush()
		}
		return &DrainTimeoutError{Stragglers: stragglers, Cause: ctx.Err()}
	}
}

// Close is Drain with no deadline.
func (s *Service) Close() error { return s.Drain(context.Background()) }
