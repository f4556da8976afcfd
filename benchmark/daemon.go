package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/ledger"
	"parastack/internal/noise"
	"parastack/internal/results"
	"parastack/internal/service"
	"parastack/internal/workload"
)

// daemonDurable is the operator path with durability on: one service
// configured as `parastackd -journal -ledger` configures it, small
// jobs, an open-loop phase for latency, a closed-loop phase for
// capacity, then drain, recovery on a fresh service and a ledger audit.
type daemonDurable struct {
	dir         string
	journalPath string
	ledgerDir   string

	jnl   *results.JSONL
	store *ledger.DirStore
	led   *ledger.Ledger
	svc   *service.Service

	jobs    []service.JobSpec // warm-up jobs, then open-loop jobs, then closed-loop jobs
	nWarm   int
	nOpen   int
	track   *jobTracker
	journal *timedSink // traced pass only
	sink    *timedSink
	runners chan *experiment.Runner // traced pass only
	setups  int
}

const (
	daemonRanks = 64
	// openRate is the open-loop arrival rate, about 45% of the
	// capacity the closed loop finds on the reference box.
	openRate = 100 // jobs per second
	// openShare is the share of the measured time the open loop gets;
	// at 15 s that is the 1000 jobs a p99 needs.
	openShare      = 2.0 / 3
	closedJobsMax  = 2000
	daemonWarmJobs = 32
	// librarySample is how many leading open-loop jobs are rerun in
	// process to hold the daemon's verdicts against the library's.
	librarySample = 32
	// daemonMinFaultSec keeps faults out of the model-building phase.
	// FT's iterations are 16 simulated seconds long, so under the
	// default 30 s rule 4-5% of faults fire before the model can fit and
	// the detector rightly stays silent; at 120 s none of 1500 seeds do.
	daemonMinFaultSec = 120
	submitBackoff     = 100 * time.Microsecond
	awaitTimeout      = 60 * time.Second
)

var daemonFaults = []string{"computation", "none", "deadlock"}

// jobTracker notes when each job's verdict reached the sink.
type jobTracker struct {
	mu      sync.Mutex
	due     map[string]time.Time
	done    map[string]time.Time
	appends map[string]int
	index   map[string]int   // job id -> position in daemonDurable.jobs
	bySeed  map[int64]string // run seed -> job id, for the Run wrapper
	root    int              // first reserved root span id (0 untraced)
	wg      sync.WaitGroup   // one count per submitted, undecided job
}

func (t *jobTracker) rootOf(id string) int {
	if t.root == 0 {
		return 0
	}
	if i, ok := t.index[id]; ok {
		return t.root + i
	}
	return 0
}

// verdictLanded is the sink wrapper's hook for a "verdict|<id>" append.
func (t *jobTracker) verdictLanded(id string, at time.Time) {
	t.mu.Lock()
	t.appends[id]++
	first := t.appends[id] == 1
	if first {
		t.done[id] = at
	}
	t.mu.Unlock()
	if first {
		t.wg.Done()
	}
}

// timedSink wraps a results.Sink, timing every Append. It is the
// public seam through which the benchmark sees the journal and the
// ledger without touching them.
type timedSink struct {
	inner results.Sink
	tr    *tracer
	layer string
	track *jobTracker
	// landed is called for verdict-sink records with the job id.
	landed func(id string, at time.Time)

	mu   sync.Mutex
	durs []float64 // seconds, traced pass only
}

// jobIDOf extracts the job id from a journal or verdict-sink key.
func jobIDOf(key string) string {
	return key[strings.LastIndexByte(key, '|')+1:]
}

func (s *timedSink) Append(rec results.Record) error {
	t0 := time.Now()
	err := s.inner.Append(rec)
	t1 := time.Now()
	id := jobIDOf(rec.Key)
	if s.tr != nil {
		s.tr.add(0, s.track.rootOf(id), s.layer, "append", id, t0, t1)
		s.mu.Lock()
		s.durs = append(s.durs, t1.Sub(t0).Seconds())
		s.mu.Unlock()
	}
	if err == nil && s.landed != nil && strings.HasPrefix(rec.Key, "verdict|") {
		s.landed(id, t1)
	}
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

// Flush and Lag keep the optional durability hooks of the wrapped sink
// reachable, as the service's drain-deadline and health paths expect.
func (s *timedSink) Flush() error {
	if f, ok := s.inner.(results.Flusher); ok {
		return f.Flush()
	}
	return nil
}

func (s *timedSink) Lag() int {
	if l, ok := s.inner.(results.Lagger); ok {
		return l.Lag()
	}
	return 0
}

func (s *timedSink) durations() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.durs...)
}

func (w *daemonDurable) setup(c *runCtx) error {
	w.setups++
	w.dir = filepath.Join(c.outDir, fmt.Sprintf("daemon_%d_%d", os.Getpid(), w.setups))
	w.journalPath = filepath.Join(w.dir, "journal.jsonl")
	w.ledgerDir = filepath.Join(w.dir, "ledger")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}

	w.nWarm = daemonWarmJobs
	w.nOpen = int(c.seconds * openShare * openRate)
	if w.nOpen < 4 {
		w.nOpen = 4
	}
	nClosed := c.scaled(closedJobsMax, 8)
	w.jobs = nil
	w.track = &jobTracker{
		due: map[string]time.Time{}, done: map[string]time.Time{}, appends: map[string]int{},
		index: map[string]int{}, bySeed: map[int64]string{},
	}
	for i := 0; i < w.nWarm+w.nOpen+nClosed; i++ {
		prefix := "c"
		switch {
		case i < w.nWarm:
			prefix = "w"
		case i < w.nWarm+w.nOpen:
			prefix = "o"
		}
		js := service.JobSpec{
			ID: fmt.Sprintf("%s%05d", prefix, i), Bench: "FT", Class: "D", Procs: daemonRanks,
			Platform: "tardis", Fault: daemonFaults[i%len(daemonFaults)], Seed: c.seed*100_000 + int64(i) + 1,
			MinFaultSec: daemonMinFaultSec,
		}
		w.track.index[js.ID] = i
		w.track.bySeed[js.Seed] = js.ID
		w.jobs = append(w.jobs, js)
	}
	w.track.root = c.tr.reserve(len(w.jobs))

	var err error
	if w.jnl, err = results.OpenJSONL(w.journalPath, 1); err != nil {
		return err
	}
	if w.store, err = ledger.OpenDirStore(w.ledgerDir); err != nil {
		return err
	}
	if w.led, err = ledger.Open(w.store, ledger.Options{}); err != nil {
		return err
	}
	w.sink = &timedSink{inner: w.led, tr: c.tr, layer: "ledger", track: w.track, landed: w.track.verdictLanded}
	cfg := service.Config{Journal: w.jnl, Sink: w.sink}
	if c.tr != nil {
		// The traced pass sees the journal and the workers through the
		// same kind of seam; the untraced pass leaves both alone.
		w.journal = &timedSink{inner: w.jnl, tr: c.tr, layer: "results", track: w.track}
		cfg.Journal = w.journal
		w.runners = make(chan *experiment.Runner, runtime.GOMAXPROCS(0))
		for i := 0; i < cap(w.runners); i++ {
			w.runners <- experiment.NewRunner()
		}
		cfg.Run = w.tracedRun(c.tr)
	}
	w.svc = service.New(cfg)

	// Warm-up: a few jobs through the whole pipeline, so each worker's
	// Runner has its 64-rank world and the ledger has committed once.
	for _, js := range w.jobs[:w.nWarm] {
		if _, err := w.submitRetrying(c, js, time.Now()); err != nil {
			return err
		}
	}
	return w.await("warm-up")
}

// tracedRun is the Config.Run of the traced pass: the same reused
// Runners the pool would own, with a span around each run.
func (w *daemonDurable) tracedRun(tr *tracer) func(experiment.RunConfig) experiment.RunResult {
	return func(rc experiment.RunConfig) experiment.RunResult {
		rn := <-w.runners
		defer func() { w.runners <- rn }()
		id := w.track.bySeed[rc.Seed]
		t0 := time.Now()
		res := rn.Run(rc)
		tr.add(0, w.track.rootOf(id), "experiment", "run", id, t0, time.Now())
		return res
	}
}

func (w *daemonDurable) discard() {
	if w.svc != nil {
		_ = w.svc.Close() // idempotent; a discarded set-up has nothing left to report
	}
	// Close is idempotent on all three; a discarded set-up has no error
	// anyone could act on.
	if w.jnl != nil {
		_ = w.jnl.Close()
	}
	if w.led != nil {
		_ = w.led.Close()
	}
	if w.store != nil {
		_ = w.store.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
	w.svc, w.jnl, w.led, w.store, w.jobs, w.track = nil, nil, nil, nil, nil, nil
}

// submitRetrying submits one job, retrying refusals for backpressure,
// and returns how many times it was refused. due is when the job was
// due to be sent.
func (w *daemonDurable) submitRetrying(c *runCtx, js service.JobSpec, due time.Time) (refused int, err error) {
	w.track.mu.Lock()
	w.track.due[js.ID] = due
	w.track.mu.Unlock()
	w.track.wg.Add(1)
	for {
		t0 := time.Now()
		err := w.svc.Submit(js)
		if err == nil {
			c.tr.add(0, w.track.rootOf(js.ID), "service", "submit", js.ID, t0, time.Now())
			return refused, nil
		}
		if !errors.Is(err, service.ErrBusy) && !errors.Is(err, service.ErrQuota) {
			w.track.wg.Done()
			return refused, fmt.Errorf("submit %s: %w", js.ID, err)
		}
		refused++
		time.Sleep(submitBackoff)
	}
}

// await blocks until every submitted job's verdict has reached the sink.
func (w *daemonDurable) await(phase string) error {
	done := make(chan struct{})
	go func() { w.track.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(awaitTimeout):
		return fmt.Errorf("%s: verdicts still missing after %v (pending %v)", phase, awaitTimeout, w.svc.Pending())
	}
}

// clock is what the open-loop generator needs from time, so a test can
// make the generator late on purpose.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i*interval whatever happened to the earlier ones — and
// returns how late the generator ever ran. send receives the due time:
// latency is counted from there, so the wait a stall imposes on later
// requests is charged to them.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, send func(i int, due time.Time)) (lateMax time.Duration) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		if late := clk.Now().Sub(due); late > lateMax {
			lateMax = late
		}
		send(i, due)
	}
	return lateMax
}

func (w *daemonDurable) measure(c *runCtx) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	submitted, refused := w.nWarm, 0
	fail := func(err error) {
		c.failed++
		if len(c.checks) < 8 {
			c.check("submit", false, "%v", err)
		}
	}

	// Phase open: independent tenants, fixed arrival schedule.
	open := w.jobs[w.nWarm : w.nWarm+w.nOpen]
	lateMax := openLoop(wallClock{}, time.Now().Add(time.Millisecond), time.Second/openRate, len(open), func(i int, due time.Time) {
		c.attempted++
		r, err := w.submitRetrying(c, open[i], due)
		refused += r
		if err != nil {
			fail(err)
			return
		}
		submitted++
	})
	if err := w.await("open phase"); err != nil {
		return err
	}

	// Phase closed: as fast as admission allows, only to find capacity.
	closed := w.jobs[w.nWarm+w.nOpen:]
	// The closed loop gets its share of the time from when it starts: an
	// open phase that backed up on a disturbed box must not leave it none.
	closedStart := time.Now()
	deadline := closedStart.Add(time.Duration(float64(c.measured()) * (1 - openShare)))
	nClosed := 0
	for ; nClosed < len(closed) && time.Now().Before(deadline); nClosed++ {
		c.attempted++
		r, err := w.submitRetrying(c, closed[nClosed], time.Now())
		refused += r
		if err != nil {
			fail(err)
			continue
		}
		submitted++
	}
	if err := w.await("closed phase"); err != nil {
		return err
	}
	closedEnd := closedStart
	w.track.mu.Lock()
	for _, js := range closed[:nClosed] {
		if at := w.track.done[js.ID]; at.After(closedEnd) {
			closedEnd = at
		}
	}
	w.track.mu.Unlock()
	runtime.ReadMemStats(&ms1)

	c.counts["jobs_warm"] = w.nWarm
	c.counts["jobs_open"] = len(open)
	c.counts["jobs_closed"] = nClosed
	c.counts["jobs_closed_generated"] = len(closed)
	c.counts["open_rate_per_s"] = openRate

	// Drain, then close both sinks.
	t0 := time.Now()
	if err := w.svc.Close(); err != nil {
		return fmt.Errorf("service close: %w", err)
	}
	t1 := time.Now()
	c.tr.add(0, 0, "service", "drain", "", t0, t1)
	c.set("service.drain_ms", t1.Sub(t0).Seconds()*1e3)
	counters := w.svc.Counters()
	verdicts := w.svc.Verdicts()
	if err := w.jnl.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	t0 = time.Now()
	if err := w.led.Close(); err != nil {
		return fmt.Errorf("ledger close: %w", err)
	}
	t1 = time.Now()
	c.tr.add(0, 0, "ledger", "close_flush", "", t0, t1)
	c.set("ledger.close_flush_ms", t1.Sub(t0).Seconds()*1e3)
	c.set("ledger.batches", float64(w.led.LedgerStats().Batches))
	if err := w.store.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}

	w.checkVerdicts(c, verdicts, submitted)
	if err := w.recoverAndVerify(c, submitted); err != nil {
		return err
	}

	// End-to-end numbers.
	var lat []float64
	w.track.mu.Lock()
	for _, js := range open {
		if at, ok := w.track.done[js.ID]; ok {
			lat = append(lat, float64(at.Sub(w.track.due[js.ID]).Nanoseconds())/1e6)
		}
	}
	w.track.mu.Unlock()
	c.counts["latency_samples"] = len(lat)
	if d := closedEnd.Sub(closedStart).Seconds(); d > 0 {
		c.set("work_per_s", float64(nClosed)/d)
	}
	c.set("unit_wall_ms_p50", median(lat))
	c.set("alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(open)+nClosed))

	// Per-layer numbers.
	c.set("service.job_latency_ms_p90", supportedTail(lat, 0.90))
	c.set("service.job_latency_ms_p99", supportedTail(lat, 0.99))
	c.set("service.gen_late_ms_max", lateMax.Seconds()*1e3)
	c.set("service.submit_refused_ratio", float64(refused)/float64(refused+submitted))
	c.set("service.batches_flushed", float64(counters.Counter(service.CtrBatchesFlushed)))
	c.set("results.journal_appends", float64(counters.Counter(service.CtrJournalAppends)))
	// Admission-to-dispatch and simulated events of the open-loop jobs:
	// a fixed set for a seed, where the closed loop's count varies.
	var ingest []float64
	var events uint64
	for _, v := range verdicts {
		if i := w.track.index[v.JobID]; i >= w.nWarm && i < w.nWarm+w.nOpen {
			ingest = append(ingest, float64(v.IngestUS)/1e3)
			events += v.Events
		}
	}
	c.set("service.ingest_ms_p50", median(ingest))
	c.set("sim.events", float64(events))
	if c.tr != nil {
		w.tracedMetrics(c, closedStart, closedEnd)
	}
	return nil
}

// checkVerdicts holds every job against its ground truth, requires
// exactly one verdict per job id, and reruns a sample of jobs — the
// leading open-loop jobs and every false positive — in process: the
// service promises verdicts bit-identical to experiment.Run, so a false
// positive the library does not reproduce is the daemon's error, not
// the detector's.
func (w *daemonDurable) checkVerdicts(c *runCtx, verdicts []service.Verdict, submitted int) {
	seen := make(map[string]int)
	var truth truthTally
	var rerun []service.Verdict
	for _, v := range verdicts {
		seen[v.JobID]++
		i := w.track.index[v.JobID]
		js := w.jobs[i]
		if v.Status != service.VerdictOK {
			c.failed++
			continue
		}
		kind, _ := fault.Parse(js.Fault) // the spec was generated here and admitted by the service
		o := classify(kind, v.Completed, v.Detected, v.FalsePositive, v.Report != nil, v.Cause)
		truth.add(o, func() string {
			return fmt.Sprintf("%s fault=%s completed=%v detected=%v false_positive=%v cause=%q",
				v.JobID, js.Fault, v.Completed, v.Detected, v.FalsePositive, v.Cause)
		})
		if sampled := i >= w.nWarm && i < w.nWarm+librarySample; sampled || o == outcomeFalsePositive {
			rerun = append(rerun, v)
		}
	}
	truth.publish(c)

	rn := experiment.NewRunner()
	same := 0
	var firstDiff string
	for _, v := range rerun {
		js := w.jobs[w.track.index[v.JobID]]
		kind, _ := fault.Parse(js.Fault)
		res := rn.Run(experiment.RunConfig{
			Params: workload.MustLookup(js.Bench, js.Class, js.Procs), Platform: noise.Tardis(), Seed: js.Seed,
			FaultKind: kind, MinFaultTime: daemonMinFaultSec * time.Second, Monitor: &core.Config{},
		})
		lib := rowOf("", &res)
		got := runRow{Seed: js.Seed, Events: v.Events, Cause: v.Cause}
		if v.Report != nil {
			got.DetectedAt = v.Report.DetectedAt.Nanoseconds()
		}
		if got.Events == lib.Events && got.Cause == lib.Cause && got.DetectedAt == lib.DetectedAt &&
			v.Completed == res.Completed && v.Detected == res.Detected && v.FalsePositive == res.FalsePositive {
			same++
		} else if firstDiff == "" {
			firstDiff = fmt.Sprintf("%s: daemon %+v, library %+v", v.JobID, got, lib)
		}
	}
	c.counts["library_reruns"] = len(rerun)
	c.check("verdict_equals_library", same == len(rerun), "%d of %d rerun jobs differ, first: %s", len(rerun)-same, len(rerun), firstDiff)

	once := 0
	w.track.mu.Lock()
	for id, n := range seen {
		if n == 1 && w.track.appends[id] == 1 {
			once++
		}
	}
	w.track.mu.Unlock()
	c.check("one_verdict_per_job", once == submitted && len(seen) == submitted,
		"%d of %d submitted jobs have exactly one verdict (%d ids decided)", once, submitted, len(seen))
}

// recoverAndVerify restarts the daemon's durable plane: a fresh service
// over the same journal file and a reopened ledger replays the journal,
// which must find every job decided, and the ledger audit must pass.
func (w *daemonDurable) recoverAndVerify(c *runCtx, submitted int) error {
	t0 := time.Now()
	recs, err := results.ReadJSONL(w.journalPath)
	if err != nil {
		return fmt.Errorf("reading journal: %w", err)
	}
	t1 := time.Now()
	replay := service.ReplayJournal(recs)
	t2 := time.Now()
	if len(recs) > 0 {
		c.set("service.replay_us_per_rec", t2.Sub(t1).Seconds()*1e6/float64(len(recs)))
	}
	c.tr.add(0, 0, "results", "read_jsonl", "", t0, t1)
	c.tr.add(0, 0, "service", "replay_journal", "", t1, t2)
	c.check("journal_pairs", len(replay.Decided) == submitted, "journal holds %d decided jobs, %d were submitted", len(replay.Decided), submitted)

	jnl, err := results.OpenJSONL(w.journalPath, 1)
	if err != nil {
		return err
	}
	store, err := ledger.OpenDirStore(w.ledgerDir)
	if err != nil {
		return err
	}
	led, err := ledger.Open(store, ledger.Options{})
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Journal: jnl, Sink: led})
	t0 = time.Now()
	rep, err := svc.Recover(jnl)
	t1 = time.Now()
	c.tr.add(0, 0, "service", "recover", "", t0, t1)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	c.set("service.recover_ms", t1.Sub(t0).Seconds()*1e3)
	c.check("recover_all_decided", len(rep.Decided) == submitted && len(rep.Open) == 0 && rep.Skipped == 0,
		"recover: %s, want %d decided, 0 open, 0 skipped", rep, submitted)
	if err := svc.Close(); err != nil {
		return fmt.Errorf("recovered service close: %w", err)
	}
	if err := jnl.Close(); err != nil {
		return err
	}
	dedup := led.LedgerStats().DedupHits
	c.set("ledger.dedup_hits", float64(dedup))
	c.check("ledger_dedup", dedup == uint64(submitted), "re-appending %d journaled verdicts gave %d dedup hits", submitted, dedup)
	if err := led.Close(); err != nil {
		return fmt.Errorf("reopened ledger close: %w", err)
	}

	t0 = time.Now()
	audit, err := ledger.Verify(store, 0)
	t1 = time.Now()
	c.tr.add(0, 0, "ledger", "verify", "", t0, t1)
	if err != nil {
		return fmt.Errorf("ledger verify: %w", err)
	}
	c.check("ledger_verify", audit.OK(), "%d problems, first: %v", len(audit.Problems), firstProblem(audit))
	if audit.Records > 0 {
		c.set("ledger.verify_us_per_rec", t1.Sub(t0).Seconds()*1e6/float64(audit.Records))
	}
	return store.Close()
}

func firstProblem(r *ledger.VerifyReport) string {
	if len(r.Problems) == 0 {
		return ""
	}
	return r.Problems[0].String()
}

// tracedMetrics derives the span-based numbers and closes every job's
// root span.
func (w *daemonDurable) tracedMetrics(c *runCtx, closedStart, closedEnd time.Time) {
	w.track.mu.Lock()
	for id, at := range w.track.done {
		c.tr.add(w.track.rootOf(id), 0, "bench", "job", id, w.track.due[id], at)
	}
	w.track.mu.Unlock()

	spans := c.tr.snapshot()
	submits := spanSeconds(spans, "service", "submit")
	c.set("service.submit_us_p50", median(submits)*1e6)
	c.set("service.submit_us_p99", supportedTail(submits, 0.99)*1e6)
	c.set("ledger.append_us_p50", median(w.sink.durations())*1e6)
	journal := w.journal.durations()
	c.set("results.journal_append_us_p50", median(journal)*1e6)
	c.set("results.journal_append_us_p99", supportedTail(journal, 0.99)*1e6)
	c.set("results.journal_busy_s", sum(journal))
	runs := spanSeconds(spans, "experiment", "run")
	c.set("service.run_busy_s", sum(runs))
	c.set("experiment.run_busy_s", sum(runs))

	// Worker utilisation over the closed phase, where the pool is the
	// resource the generator is trying to saturate.
	lo, hi := closedStart.Sub(c.tr.t0).Nanoseconds(), closedEnd.Sub(c.tr.t0).Nanoseconds()
	var busy int64
	for _, s := range spans {
		if s.Layer == "experiment" && s.Name == "run" && s.StartNS >= lo && s.EndNS <= hi {
			busy += s.EndNS - s.StartNS
		}
	}
	if hi > lo {
		c.set("service.worker_util", float64(busy)/float64(int64(cap(w.runners))*(hi-lo)))
	}

	// Every job span must account for its stages.
	type kids struct{ submit, run, journal int }
	per := make(map[int]*kids)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		k := per[s.Parent]
		if k == nil {
			k = &kids{}
			per[s.Parent] = k
		}
		switch {
		case s.Layer == "service" && s.Name == "submit":
			k.submit++
		case s.Layer == "experiment" && s.Name == "run":
			k.run++
		case s.Layer == "results" && s.Name == "append":
			k.journal++
		}
	}
	complete, jobs := 0, 0
	for _, s := range spans {
		if s.Layer == "bench" && s.Name == "job" {
			jobs++
			if k := per[s.ID]; k != nil && k.submit == 1 && k.run >= 1 && k.journal == 2 {
				complete++
			}
		}
	}
	c.check("job_spans_complete", complete == jobs, "%d of %d job spans have a submit, a run and two journal appends", complete, jobs)
}
