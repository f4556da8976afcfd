package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/obs"
	"parastack/internal/results"
)

// Counter and event names the orchestrator reports through its
// recorder (Options.Recorder).
const (
	CtrRunsDone    = "sweep.runs_done"    // runs completed successfully
	CtrRunsFailed  = "sweep.runs_failed"  // runs that exhausted retries
	CtrRunsRetried = "sweep.runs_retried" // retry attempts after a panic
	CtrRunsSkipped = "sweep.runs_skipped" // cells satisfied from a resumed log

	// EvProgress is the periodic progress event: fields total, done,
	// executed, skipped, failed, retried, eta_ms. Its T field is
	// wall-clock elapsed time (sweeps run outside virtual time).
	EvProgress = "sweep_progress"
)

// Progress is a point-in-time view of a sweep, delivered through
// Options.OnProgress.
type Progress struct {
	// Total is the number of cells in scope so far; Done counts cells
	// with a terminal outcome (executed + skipped-from-log).
	Total, Done int
	// Executed, Skipped, Failed, Retried break Done down.
	Executed, Skipped, Failed, Retried int
	// Elapsed is wall time since the sweep started; ETA extrapolates
	// the remaining cells from the executed ones' mean cost (zero until
	// the first run completes).
	Elapsed, ETA time.Duration
}

// Options tunes a sweep.
type Options struct {
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Retries is how many times a panicking run is re-executed before
	// being recorded as failed (0 = default 1; negative = no retries).
	// The zero-value-selects-default encoding means a literal "zero
	// retries" cannot be spelled as 0 here; callers holding a literal
	// count (CLI flags) convert it with LiteralRetries, which maps 0 to
	// NoRetries.
	Retries int
	// Out is the durable results-log path ("" = in-memory only).
	Out string
	// Sink, when non-nil, receives every terminal record instead of a
	// JSONL log at Out (which is then ignored). Any results.Sink works
	// — the Merkle ledger (internal/ledger) is the canonical one. The
	// sweep flushes records through the sink but never closes a
	// caller-provided sink: the caller owns its lifecycle (and, for a
	// ledger, its final batch commit).
	Sink results.Sink
	// Resume skips cells whose terminal records already exist: loaded
	// from Out (if it exists) instead of truncating it, or — when Sink
	// also implements results.Reader, as the ledger does — from the
	// sink itself, which is what makes a shared ledger a cross-sweep
	// results cache (identical cells dedup instead of re-executing).
	Resume bool
	// SyncEvery is the log's fsync batch size (0 = 16).
	SyncEvery int
	// MaxRuns stops dispatching new runs after this many executions —
	// the deterministic stand-in for a mid-sweep crash used by `make
	// sweep-smoke` and the resume tests (0 = unbounded).
	MaxRuns int
	// Recorder receives the sweep counters and progress events (nil =
	// a private metrics-only recorder). The pool serializes every
	// recorder call under one mutex, so a plain obs.New recorder —
	// which is not itself concurrency-safe — works.
	Recorder obs.Recorder
	// OnProgress, when non-nil, receives throttled progress updates
	// (at most one per ProgressPeriod, plus a final one).
	OnProgress func(Progress)
	// ProgressPeriod throttles OnProgress and EvProgress (0 = 1s).
	ProgressPeriod time.Duration
	// Run overrides the run executor (tests inject panicking runs
	// here). When nil, each worker gets its own experiment.Runner, so
	// consecutive runs on a worker reuse one simulator's memory.
	Run func(experiment.RunConfig) experiment.RunResult
}

// NoRetries is the Options.Retries encoding of "re-execute nothing":
// any negative value works, this one documents intent.
const NoRetries = -1

// DefaultRetries is what Options.Retries = 0 selects.
const DefaultRetries = 1

// LiteralRetries converts a literal retry count — where 0 genuinely
// means zero retries, the natural spelling for a CLI flag — into the
// Options.Retries encoding (whose zero value selects DefaultRetries).
// Negative literals also mean zero retries.
func LiteralRetries(n int) int {
	if n <= 0 {
		return NoRetries
	}
	return n
}

// openSink resolves the options' results destination and resume index:
// a caller-provided Options.Sink (owned=false — the caller closes it),
// or a JSONL log opened at Out (owned=true — the sweep closes it), or
// nil for in-memory-only sweeps. When Resume is set, prior holds the
// last terminal record per key, read back through the results.Reader
// that will be written — the log and a ledger take the same path.
func (o Options) openSink() (sink results.Sink, owned bool, prior map[string]Record, err error) {
	sink, prior = o.Sink, map[string]Record{}
	if sink == nil {
		if o.Out == "" {
			return nil, false, prior, nil
		}
		open := CreateLog
		if o.Resume {
			open = openLog
		}
		log, err := open(o.Out, o.SyncEvery)
		if err != nil {
			return nil, false, nil, err
		}
		sink, owned = log, true
	}
	if !o.Resume {
		return sink, owned, prior, nil
	}
	r, ok := sink.(results.Reader)
	if !ok {
		return nil, false, nil, fmt.Errorf("sweep: Options.Sink %T does not implement results.Reader, so it cannot resume", sink)
	}
	if prior, err = readPrior(r); err != nil {
		if owned {
			sink.Close()
		}
		return nil, false, nil, err
	}
	return sink, owned, prior, nil
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.ProgressPeriod <= 0 {
		o.ProgressPeriod = time.Second
	}
	if o.Recorder == nil {
		o.Recorder = obs.New(nil) // metrics-only: counters work, events off
	}
	return o
}

// Outcome is what a sweep leaves behind in memory (the durable log
// holds the same records).
type Outcome struct {
	// Spec echoes the grid.
	Spec Spec
	// Records are the terminal records of every completed cell, in
	// cell-index order (cells never executed — cancellation, MaxRuns —
	// are absent).
	Records []Record
	// Total is the grid size; Executed/Skipped/Failed/Retried count
	// what happened to it this invocation.
	Total, Executed, Skipped, Failed, Retried int
	// Halted reports that MaxRuns stopped the sweep early.
	Halted bool
	// Elapsed is the wall time spent.
	Elapsed time.Duration
}

// Results returns the successful runs' outcomes in cell-index order
// (failed cells contribute nothing).
func (o *Outcome) Results() []experiment.RunResult {
	out := make([]experiment.RunResult, 0, len(o.Records))
	for _, r := range o.Records {
		if r.Status == StatusOK && r.Result != nil {
			out = append(out, *r.Result)
		}
	}
	return out
}

// Aggregate computes the paper's campaign metrics over Results. Because
// results are assembled in cell-index order, the aggregation is
// bit-identical whether the sweep ran uninterrupted or was killed and
// resumed any number of times.
func (o *Outcome) Aggregate() experiment.Metrics {
	return experiment.Aggregate(o.Results())
}

// Complete reports whether every cell of the grid has a terminal
// record.
func (o *Outcome) Complete() bool { return len(o.Records) == o.Total }

// unit is one schedulable run: a cell key, its position in the caller's
// result order, and the materialized config.
type unit struct {
	key   string
	index int
	rc    experiment.RunConfig
}

// pool executes units with bounded workers, panic-recovery retry,
// result-sink streaming, and progress reporting. One pool can serve many
// batches (the Orchestrator reuses it across campaigns) so counters,
// the MaxRuns budget, and progress accumulate.
type pool struct {
	opts Options
	sink results.Sink
	rec  obs.Recorder

	mu           sync.Mutex
	total        int // cells in scope (executed + skipped + pending)
	executed     int
	skipped      int
	failed       int
	retried      int
	dispatched   int
	halted       bool
	started      time.Time
	lastProgress time.Time
	logErr       error
}

func newPool(opts Options, sink results.Sink) *pool {
	return &pool{opts: opts, sink: sink, rec: opts.Recorder, started: time.Now()}
}

// writeRecord marshals one terminal record and appends it to sink —
// the single serialization point shared by every backend, which is why
// a ledger-held record is byte-identical to its JSONL line.
func writeRecord(sink results.Sink, rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return sink.Append(results.Record{Key: rec.Key, Payload: data})
}

// noteSkipped accounts for cells satisfied from a resumed log.
func (p *pool) noteSkipped(rec Record) {
	p.mu.Lock()
	p.total++
	p.skipped++
	if rec.Status == StatusFailed {
		p.failed++
	}
	p.rec.Count(CtrRunsSkipped, 1)
	p.mu.Unlock()
}

// run dispatches units to the worker pool and blocks until every
// dispatched unit has a terminal record (delivered through sink, which
// is called with the pool lock held — keep it cheap). It stops feeding
// on context cancellation or an exhausted MaxRuns budget and returns
// ctx.Err() (nil on a clean drain).
func (p *pool) run(ctx context.Context, units []unit, sink func(Record)) error {
	p.mu.Lock()
	p.total += len(units)
	p.mu.Unlock()
	if len(units) == 0 {
		return ctx.Err()
	}
	workers := p.opts.Workers
	if workers > len(units) {
		workers = len(units)
	}
	next := make(chan unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := p.opts.Run
			if run == nil {
				// Per-worker Runner: simulator memory is reused across this
				// worker's runs and never shared between workers.
				run = experiment.NewRunner().Run
			}
			for u := range next {
				rec := p.execute(u, run)
				p.mu.Lock()
				if p.sink != nil {
					if err := writeRecord(p.sink, rec); err != nil && p.logErr == nil {
						p.logErr = err
					}
				}
				p.executed++
				if rec.Status == StatusFailed {
					p.failed++
					p.rec.Count(CtrRunsFailed, 1)
				} else {
					p.rec.Count(CtrRunsDone, 1)
				}
				sink(rec)
				p.progressLocked(false)
				p.mu.Unlock()
			}
		}()
	}
feed:
	for _, u := range units {
		p.mu.Lock()
		budgetSpent := p.opts.MaxRuns > 0 && p.dispatched >= p.opts.MaxRuns
		if !budgetSpent {
			p.dispatched++
		} else {
			p.halted = true
		}
		p.mu.Unlock()
		if budgetSpent {
			break feed
		}
		select {
		case next <- u:
		case <-ctx.Done():
			// The slot reserved above was never used; give it back so a
			// later batch (Orchestrator) still sees the right budget.
			p.mu.Lock()
			p.dispatched--
			p.mu.Unlock()
			break feed
		}
	}
	close(next)
	wg.Wait()
	p.mu.Lock()
	p.progressLocked(true)
	err := p.logErr
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("sweep: results log: %w", err)
	}
	return ctx.Err()
}

// execute runs one unit with panic recovery and bounded retry on the
// worker's executor. A Runner that a panic unwound through has already
// shut its half-run simulator down and builds a fresh one on the next
// attempt (see experiment.Runner.Run).
func (p *pool) execute(u unit, run func(experiment.RunConfig) experiment.RunResult) Record {
	var lastErr string
	for attempt := 1; ; attempt++ {
		res, err := p.runOnce(u.rc, run)
		if err == nil {
			return Record{Schema: SchemaVersion, Key: u.key, Index: u.index,
				Status: StatusOK, Attempts: attempt, Result: res}
		}
		lastErr = err.Error()
		if attempt > p.opts.Retries {
			return Record{Schema: SchemaVersion, Key: u.key, Index: u.index,
				Status: StatusFailed, Attempts: attempt, Error: lastErr}
		}
		p.mu.Lock()
		p.retried++
		p.rec.Count(CtrRunsRetried, 1)
		p.mu.Unlock()
	}
}

// runOnce executes one run, converting a panic into an error so a bad
// cell cannot take the sweep down.
func (p *pool) runOnce(rc experiment.RunConfig, run func(experiment.RunConfig) experiment.RunResult) (res *experiment.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	r := run(rc)
	return &r, nil
}

// progressLocked emits a progress update (throttled unless final).
// Callers hold p.mu.
func (p *pool) progressLocked(final bool) {
	now := time.Now()
	if !final && now.Sub(p.lastProgress) < p.opts.ProgressPeriod {
		return
	}
	p.lastProgress = now
	pr := Progress{
		Total:    p.total,
		Done:     p.skipped + p.executed,
		Executed: p.executed,
		Skipped:  p.skipped,
		Failed:   p.failed,
		Retried:  p.retried,
		Elapsed:  now.Sub(p.started),
	}
	if remaining := pr.Total - pr.Done; p.executed > 0 && remaining > 0 {
		pr.ETA = time.Duration(float64(pr.Elapsed) / float64(p.executed) * float64(remaining))
	}
	if p.rec.Enabled() {
		p.rec.Event(pr.Elapsed, EvProgress,
			obs.Int("total", int64(pr.Total)),
			obs.Int("done", int64(pr.Done)),
			obs.Int("executed", int64(pr.Executed)),
			obs.Int("skipped", int64(pr.Skipped)),
			obs.Int("failed", int64(pr.Failed)),
			obs.Int("retried", int64(pr.Retried)),
			obs.Dur("eta_ms", pr.ETA))
	}
	if p.opts.OnProgress != nil {
		p.opts.OnProgress(pr)
	}
}

// Run executes a sweep over spec's grid. Cancellation of ctx stops
// dispatching (runs already in flight finish — a simulated run is not
// interruptible mid-engine), flushes the log, and returns the partial
// Outcome together with ctx.Err(); rerunning with Options.Resume picks
// up exactly where the log left off.
func Run(ctx context.Context, spec Spec, opts Options) (*Outcome, error) {
	start := time.Now()
	opts = opts.withDefaults()
	spec = spec.withDefaults()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}

	sink, owned, prior, err := opts.openSink()
	if err != nil {
		return nil, err
	}
	closeSink := func() error {
		if sink == nil || !owned {
			return nil
		}
		return sink.Close()
	}

	p := newPool(opts, sink)
	final := make([]*Record, len(cells))
	var units []unit
	for _, c := range cells {
		key := c.Key()
		if r, ok := prior[key]; ok {
			r.Index = c.Index // identity is the key; index follows this spec
			rr := r
			final[c.Index] = &rr
			p.noteSkipped(r)
			continue
		}
		rc, err := spec.RunConfig(c)
		if err != nil {
			closeSink()
			return nil, err
		}
		units = append(units, unit{key: key, index: c.Index, rc: rc})
	}

	runErr := p.run(ctx, units, func(r Record) {
		rr := r
		final[r.Index] = &rr
	})
	if cerr := closeSink(); cerr != nil && runErr == nil {
		runErr = cerr
	}

	out := &Outcome{Spec: spec, Total: len(cells), Elapsed: time.Since(start)}
	p.mu.Lock()
	out.Executed, out.Skipped, out.Failed, out.Retried, out.Halted =
		p.executed, p.skipped, p.failed, p.retried, p.halted
	p.mu.Unlock()
	for _, r := range final {
		if r != nil {
			out.Records = append(out.Records, *r)
		}
	}
	return out, runErr
}

// Resume re-runs spec against the results log at path, skipping every
// cell the log already holds; it is Run with Options.Out/Resume set.
func Resume(ctx context.Context, path string, spec Spec, opts Options) (*Outcome, error) {
	opts.Out = path
	opts.Resume = true
	return Run(ctx, spec, opts)
}
