// Command parastackd is the multi-tenant hang-detection daemon: a
// long-running service multiplexing per-job ParaStack monitors over a
// sharded worker pool. Jobs — (workload, platform, fault, seed)
// simulations or external Scrout sample feeders — are submitted over
// HTTP, stream jobs are fed over HTTP, and verdicts (detect.Report
// plus the wait-for root-cause diagnosis) are read back over HTTP.
//
// Usage:
//
//	parastackd -http 127.0.0.1:7117
//	parastackd -http 127.0.0.1:7117 -workers 8 -max-jobs 4096 -retries 0
//	parastackd -http 127.0.0.1:7117 -journal /var/lib/psd/journal.jsonl -retry-max 3
//
// Drive it with any HTTP client:
//
//	curl -d '{"id":"j1","bench":"CG","class":"D","procs":64,"platform":"tardis","fault":"computation","seed":3}' http://127.0.0.1:7117/jobs
//	curl 'http://127.0.0.1:7117/jobs/j1?wait=60s'
//	curl http://127.0.0.1:7117/verdicts
//
// The routes are listed on service.Handler.
//
// With -journal the daemon is crash-safe: every accepted job is
// appended (fsynced) to the journal before the client sees success,
// and a restart with the same journal re-installs decided verdicts and
// re-runs open jobs — exactly one verdict per job, bit-identical to an
// uninterrupted run. -retry-max/-retry-base, -job-deadline, and
// -breaker-threshold/-breaker-cooldown tune the supervisor: transient
// failures (panicked workers, open shard circuits, plausibly-transient
// hang causes) are requeued with deterministic backoff; structural
// hangs (deadlock, collective mismatch) are never retried.
//
// On SIGTERM/SIGINT the daemon drains gracefully: intake is rejected,
// the shard queues empty, every in-flight run completes, pending
// stream jobs are closed out, and only then does the HTTP server shut
// down — so a client that submitted before the signal can still
// collect its verdict. -drain-timeout is a hard deadline: on expiry the
// still-undecided jobs are flushed to the journal as open entries
// (recoverable on restart) and the daemon exits nonzero, naming them.
//
// See the "Running the daemon" section of README.md for an end-to-end
// example.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"parastack/internal/ledger"
	"parastack/internal/obs"
	"parastack/internal/results"
	"parastack/internal/service"
	"parastack/internal/sweep"
)

// sinkOrNil keeps a nil *ledger.Ledger from becoming a non-nil
// results.Sink interface value.
func sinkOrNil(led *ledger.Ledger) results.Sink {
	if led == nil {
		return nil
	}
	return led
}

// journalOrNil does the same for the JSONL admission journal.
func journalOrNil(j *results.JSONL) results.Sink {
	if j == nil {
		return nil
	}
	return j
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers. There is no write timeout: GET /jobs/{id}?wait= and
// a samples stream are long-lived by design.
const readHeaderTimeout = 10 * time.Second

func main() { os.Exit(run()) }

// run is the whole daemon; keeping main a bare os.Exit(run()) means
// every deferred cleanup (journal, ledger) executes on every exit path
// — os.Exit never skips a pending flush.
func run() int {
	httpAddr := flag.String("http", "", "TCP address to serve HTTP on (e.g. 127.0.0.1:7117; required)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "ingest routing shards (0 = min(workers, 4))")
	maxJobs := flag.Int("max-jobs", 0, "residency quota: max undecided jobs (0 = 1024)")
	retries := flag.Int("retries", 1, "retries for a panicking run (0 = none)")
	ledgerDir := flag.String("ledger", "", "append every verdict to a tamper-evident Merkle ledger at this directory (verify with psverify -out DIR)")
	journalPath := flag.String("journal", "", "durable admission journal (JSONL file): admits are journaled before the client sees success, and a restart with the same journal recovers open jobs exactly-once")
	retryMax := flag.Int("retry-max", 1, "max executions per job, initial dispatch included (1 = never requeue)")
	retryBase := flag.Duration("retry-base", 0, "base requeue backoff, doubling per attempt (0 = 50ms)")
	jobDeadline := flag.Duration("job-deadline", 0, "per-job admission-to-verdict deadline for simulation jobs (0 = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive run failures that trip a shard's circuit breaker (0 = 5, negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 5s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM; on expiry stragglers are journaled as open and the daemon exits nonzero")
	metrics := flag.Bool("metrics", false, "print service counters on exit")
	flag.Parse()

	if *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "parastackd: -http is required")
		flag.Usage()
		return 2
	}

	// The verdict ledger outlives the service: it is closed only after
	// Drain, so the final partial batch of verdicts is committed before
	// the head root is reported.
	var led *ledger.Ledger
	if *ledgerDir != "" {
		store, err := ledger.OpenDirStore(*ledgerDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parastackd:", err)
			return 1
		}
		defer store.Close()
		if led, err = ledger.Open(store, ledger.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "parastackd:", err)
			return 1
		}
		defer led.Close()
	}

	// The admission journal is opened (and replayed, below) before the
	// listener comes up, so recovery never races fresh traffic. Every
	// append is fsynced: journal-before-ack is only worth its name if
	// "journaled" means "on disk".
	var jnl *results.JSONL
	if *journalPath != "" {
		var err error
		if jnl, err = results.OpenJSONL(*journalPath, 1); err != nil {
			fmt.Fprintln(os.Stderr, "parastackd:", err)
			return 1
		}
		defer jnl.Close()
	}

	rec := obs.New(nil)
	svc := service.New(service.Config{
		Workers:          *workers,
		Shards:           *shards,
		MaxJobs:          *maxJobs,
		Retries:          sweep.LiteralRetries(*retries),
		Recorder:         rec,
		Sink:             sinkOrNil(led),
		Journal:          journalOrNil(jnl),
		Retry:            service.RetryPolicy{MaxAttempts: *retryMax, BaseDelay: *retryBase},
		JobDeadline:      *jobDeadline,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})

	if jnl != nil {
		rep, err := svc.Recover(jnl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parastackd: recover:", err)
			return 1
		}
		if len(rep.Decided) > 0 || len(rep.Open) > 0 || rep.Skipped > 0 {
			fmt.Printf("parastackd: journal %s replayed: %s\n", *journalPath, rep)
		}
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parastackd:", err)
		svc.Close()
		return 1
	}
	httpSrv := &http.Server{Handler: service.Handler(svc), ReadHeaderTimeout: readHeaderTimeout}
	go httpSrv.Serve(ln)
	fmt.Printf("parastackd: serving HTTP on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Println("parastackd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	code := 0
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "parastackd: drain:", err)
		var dte *service.DrainTimeoutError
		if errors.As(err, &dte) {
			for _, id := range dte.Stragglers {
				fmt.Fprintln(os.Stderr, "parastackd: drain straggler:", id)
			}
		}
		code = 1
	}
	cancel()
	// The server comes down after the drain, so clients submitted
	// before the signal can still collect their verdicts during it.
	httpSrv.Close()
	if led != nil {
		// Commit the final verdict batch now so the printed head root
		// covers everything this daemon decided (Close is idempotent —
		// the deferred Close becomes a no-op).
		if err := led.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "parastackd: ledger:", err)
			code = 1
		} else {
			st := led.LedgerStats()
			fmt.Printf("parastackd: ledger %s — %d verdict(s) appended, %d batch(es), head root %s\n",
				*ledgerDir, st.Appends, st.Batches, led.HeadRoot())
		}
	}
	if *metrics {
		snap := svc.Counters()
		names := make([]string, 0, len(snap.Counters))
		for n := range snap.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("service counters:")
		for _, n := range names {
			fmt.Printf("  %-28s %d\n", n, snap.Counters[n])
		}
	}
	fmt.Println("parastackd: drained, bye")
	return code
}
