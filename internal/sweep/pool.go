package sweep

import (
	"sync"

	"parastack/internal/experiment"
)

// Task is one unit of work submitted to a streaming Pool: a stable key
// (for logs and counters) plus the materialized run configuration.
type Task struct {
	// Key identifies the task in records delivered to the submitter's
	// callback (Record.Key).
	Key string
	// Config is the run to execute.
	Config experiment.RunConfig
}

// Pool is the streaming face of the sweep worker pool: where Run and
// Orchestrator.Campaign execute a known work-list, a Pool accepts tasks
// one at a time for as long as it is open. It reuses the same execution
// machinery — per-worker experiment.Runner engine reuse, panic recovery,
// bounded retry, serialized obs counters — which is what lets a
// long-running service (internal/service, cmd/parastackd) multiplex
// thousands of independent jobs over a fixed set of simulator-owning
// workers.
//
// Submit blocks while every worker is busy; that blocking is the pool's
// backpressure signal and callers are expected to propagate it (bounded
// upstream queues, admission rejection) rather than buffer unboundedly.
type Pool struct {
	p     *pool
	tasks chan streamTask

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// streamTask pairs a submitted task with its completion callback.
type streamTask struct {
	u    unit
	done func(Record)
}

// NewPool starts opts.Workers workers (default GOMAXPROCS), each owning
// one experiment.Runner, and returns the open pool. Options.Out/Resume
// are ignored — a streaming pool has no grid to resume; durability is
// the submitter's concern. Options.Retries and Options.Recorder behave
// as in Run.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	sp := &Pool{
		p:     newPool(opts, nil),
		tasks: make(chan streamTask),
	}
	for w := 0; w < opts.Workers; w++ {
		sp.wg.Add(1)
		go func() {
			defer sp.wg.Done()
			run := opts.Run
			if run == nil {
				// Per-worker Runner: simulator memory is reused across
				// this worker's tasks and never shared between workers.
				run = experiment.NewRunner().Run
			}
			for t := range sp.tasks {
				rec := sp.p.execute(t.u, run)
				sp.p.mu.Lock()
				sp.p.executed++
				if rec.Status == StatusFailed {
					sp.p.failed++
					sp.p.rec.Count(CtrRunsFailed, 1)
				} else {
					sp.p.rec.Count(CtrRunsDone, 1)
				}
				sp.p.mu.Unlock()
				t.done(rec)
			}
		}()
	}
	return sp
}

// Submit hands one task to the next free worker, blocking until a
// worker accepts it (backpressure). done is invoked from the worker
// goroutine with the task's terminal record — StatusOK with the result,
// or StatusFailed after retries are exhausted — so it must be
// concurrency-safe and cheap. Submit after Close panics (a closed pool
// has no workers left to accept work).
func (sp *Pool) Submit(t Task, done func(Record)) {
	sp.tasks <- streamTask{u: unit{key: t.Key, rc: t.Config}, done: done}
}

// Close stops intake, waits for every in-flight task's callback to
// finish, and releases the workers. Idempotent.
func (sp *Pool) Close() {
	sp.closeOnce.Do(func() { close(sp.tasks) })
	sp.wg.Wait()
}

// Stats returns the pool's cumulative execution counts.
func (sp *Pool) Stats() Progress {
	p := sp.p
	p.mu.Lock()
	defer p.mu.Unlock()
	return Progress{
		Total:    p.total,
		Done:     p.executed,
		Executed: p.executed,
		Failed:   p.failed,
		Retried:  p.retried,
	}
}
