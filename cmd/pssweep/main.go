// Command pssweep runs resumable experiment sweeps: it expands a grid
// (workloads × platforms × fault kinds × seeds) into a deterministic
// work-list, executes it on a bounded worker pool with per-run panic
// recovery, and streams every result to a durable JSONL log. Killing a
// sweep (Ctrl-C, SIGTERM, -halt-after, a crash) loses at most one
// fsync batch of work; rerunning with -resume skips completed cells
// and — because every run is seed-deterministic — yields bit-identical
// aggregate metrics to an uninterrupted sweep.
//
// Usage:
//
//	pssweep -grid smoke -out smoke.jsonl            # tiny built-in grid
//	pssweep -grid grid.json -out results.jsonl      # grid from a JSON Spec
//	pssweep -grid grid.json -out results.jsonl -resume   # pick up where it stopped
//	pssweep -grid paper -out paper.jsonl            # every paper table, resumably
//	pssweep -grid paper -out paper.jsonl -table 6   # one table (1|3|4|5|6|7|8|9|10|cause|fp|scale)
//	pssweep -grid paper -out paper.jsonl -fig 2     # one figure's data series (2|3|4|5|7|9|10)
//
// -workers bounds the pool (default GOMAXPROCS); -ctx-timeout bounds
// wall time (the sweep stops cleanly and is resumable); -halt-after N
// stops after N executed runs (the deterministic crash stand-in used
// by `make sweep-smoke`); -retries bounds re-execution of panicking
// runs. In -grid paper mode, -runs/-seed/-maxscale scale the
// campaigns, -trace FILE writes every executed run's structured events
// as JSONL, and -metrics adds the counter totals of those runs. Runs
// replayed from the log emit neither.
//
// See the "Running sweeps" section of README.md and the sweep
// results-log entry of EXPERIMENTS.md for the grid and log schemas.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parastack/internal/ledger"
	"parastack/internal/obs"
	"parastack/internal/paper"
	"parastack/internal/results"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: os.Exit lives only in main, so every
// deferred cleanup (signal teardown, the paper orchestrator's results
// log, the trace file) executes on every exit path — an early error can
// never skip a pending log flush.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pssweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	grid := fs.String("grid", "", `grid to run: "smoke", "paper", or a path to a JSON sweep spec`)
	out := fs.String("out", "", "durable JSONL results-log path")
	ledgerDir := fs.String("ledger", "", "write results through a tamper-evident Merkle ledger at this directory instead of a JSONL log (verify with psverify -out DIR)")
	resume := fs.Bool("resume", false, "resume: skip cells whose results the log/ledger already holds")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	ctxTimeout := fs.Duration("ctx-timeout", 0, "overall wall-time bound (0 = none); the sweep stops cleanly and is resumable")
	retries := fs.Int("retries", sweep.DefaultRetries, "retries for a panicking run (0 = none)")
	haltAfter := fs.Int("halt-after", 0, "stop after N executed runs (crash stand-in for resume testing; 0 = unbounded)")
	chaosAxis := fs.String("chaos", "", `comma-separated detector-chaos axis overriding the grid's (e.g. "none,heavy")`)
	runs := fs.Int("runs", 0, "paper mode: runs per configuration (0 = small default)")
	seed := fs.Int64("seed", 1, "paper mode: base random seed")
	maxScale := fs.Int("maxscale", 4096, "paper mode: largest rank count for the scale study")
	table := fs.String("table", "", "paper mode: print only this table ("+names(paper.Tables)+")")
	fig := fs.String("fig", "", "paper mode: print only this figure's data series ("+names(paper.Figures)+")")
	traceFile := fs.String("trace", "", "paper mode: write a JSONL event trace of every executed run to this file")
	metrics := fs.Bool("metrics", false, "print sweep counter totals at the end (paper mode: also the executed runs' counter totals)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		if msg != "" {
			fmt.Fprintln(stderr, "pssweep:", msg)
		}
		fs.Usage()
		return 2
	}

	if *grid == "" || (*out == "") == (*ledgerDir == "") {
		if *out != "" && *ledgerDir != "" {
			return usage("-out and -ledger are alternative result destinations; pass exactly one")
		}
		return usage("")
	}
	paperMode := *grid == "paper"
	arts := paper.Tables
	switch {
	case paperMode && *chaosAxis != "":
		return usage("-chaos applies to grid sweeps, not -grid paper")
	case !paperMode && (*table != "" || *fig != "" || *traceFile != ""):
		return usage("-table, -fig and -trace apply to -grid paper only")
	case *table != "" && *fig != "":
		return usage("-table and -fig are alternative selections; pass at most one")
	case *table != "":
		a, ok := paper.Lookup(paper.Tables, *table)
		if !ok {
			return usage(fmt.Sprintf("unknown -table %q", *table))
		}
		arts = []paper.Artefact{a}
	case *fig != "":
		a, ok := paper.Lookup(paper.Figures, *fig)
		if !ok {
			return usage(fmt.Sprintf("unknown -fig %q", *fig))
		}
		arts = []paper.Artefact{a}
	}
	popt := paper.Options{Runs: *runs, Seed: *seed, MaxScale: *maxScale}
	if *traceFile != "" {
		sink, err := obs.OpenJSONL(*traceFile)
		if err != nil {
			return usage(err.Error())
		}
		defer func() {
			if err := sink.Close(); err != nil && code == 0 {
				fmt.Fprintln(stderr, "pssweep: trace:", err)
				code = 1
			}
		}()
		popt.Trace = sink
	}
	if *metrics && paperMode {
		popt.Stats = obs.NewTotals()
	}

	// dest names the results destination in messages: the JSONL log
	// path or the ledger directory, whichever was chosen.
	dest := *out
	if *ledgerDir != "" {
		dest = *ledgerDir
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *ctxTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *ctxTimeout)
		defer cancel()
	}

	rec := obs.New(nil) // metrics-only; the pool serializes access

	// The ledger sink is opened (and closed) here, not inside the
	// sweep: the deferred Close is what commits the final partial
	// batch, and it must run on every exit path.
	var led *ledger.Ledger
	if *ledgerDir != "" {
		store, err := ledger.OpenDirStore(*ledgerDir)
		if err != nil {
			fmt.Fprintln(stderr, "pssweep:", err)
			return 1
		}
		defer store.Close()
		if led, err = ledger.Open(store, ledger.Options{}); err != nil {
			fmt.Fprintln(stderr, "pssweep:", err)
			return 1
		}
		defer led.Close()
	}

	opts := sweep.Options{
		Workers: *workers,
		// The flag is literal — "-retries 0" really means zero — and is
		// mapped here onto the Options encoding, whose zero value must
		// keep meaning "default" for config-file and zero-struct callers.
		Retries:  sweep.LiteralRetries(*retries),
		Out:      *out,
		Resume:   *resume,
		Sink:     sinkOrNil(led),
		MaxRuns:  *haltAfter,
		Recorder: rec,
		OnProgress: func(p sweep.Progress) {
			fmt.Fprintf(stderr, "pssweep: %d/%d done (%d executed, %d skipped, %d failed, %d retried)",
				p.Done, p.Total, p.Executed, p.Skipped, p.Failed, p.Retried)
			if p.ETA > 0 {
				fmt.Fprintf(stderr, " eta %v", p.ETA.Round(time.Second))
			}
			fmt.Fprintln(stderr)
		},
	}

	var err error
	if paperMode {
		err = runPaper(ctx, opts, popt, arts, dest, stdout)
	} else {
		err = runGrid(ctx, *grid, *chaosAxis, opts, dest, stdout)
	}
	if led != nil && err == nil {
		// Commit the final batch before reporting, so the printed head
		// root covers everything this sweep wrote.
		if cerr := led.Close(); cerr != nil {
			err = cerr
		} else {
			st := led.LedgerStats()
			fmt.Fprintf(stdout, "ledger: %d record(s) appended, %d dedup hit(s), %d batch(es) — head root %s\n",
				st.Appends, st.DedupHits, st.Batches, led.HeadRoot())
		}
	}
	if *metrics {
		totals := obs.NewTotals()
		totals.Add(rec.Snapshot())
		fmt.Fprintf(stdout, "sweep counters:\n")
		for _, name := range totals.Names() {
			fmt.Fprintf(stdout, "  %-24s %d\n", name, totals.Counter(name))
		}
	}
	if popt.Stats != nil {
		fmt.Fprintf(stdout, "run counter totals over %d executed runs (runs replayed from the log emit none):\n", popt.Stats.Runs())
		for _, name := range popt.Stats.Names() {
			fmt.Fprintf(stdout, "  %-28s %d\n", name, popt.Stats.Counter(name))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "pssweep:", err)
		return 1
	}
	return 0
}

// names joins the selector names of an artefact list for usage text.
func names(arts []paper.Artefact) string {
	s := make([]string, len(arts))
	for i, a := range arts {
		s[i] = a.Name
	}
	return strings.Join(s, "|")
}

// runGrid executes a declared grid sweep and prints its summary.
// chaosAxis, when non-empty, replaces the spec's chaos axis (validation
// happens in Cells, up front).
func runGrid(ctx context.Context, grid, chaosAxis string, opts sweep.Options, dest string, stdout io.Writer) error {
	var spec sweep.Spec
	var err error
	switch grid {
	case "smoke":
		spec = sweep.SmokeSpec()
	default:
		if spec, err = sweep.LoadSpec(grid); err != nil {
			return err
		}
	}
	if chaosAxis != "" {
		spec.Chaos = strings.Split(chaosAxis, ",")
	}

	out, err := sweep.Run(ctx, spec, opts)
	if err != nil && err != context.Canceled && err != context.DeadlineExceeded {
		return err
	}
	interrupted := err != nil

	fmt.Fprintf(stdout, "sweep: %d/%d cells done (%d executed, %d skipped, %d failed, %d retried) in %v\n",
		len(out.Records), out.Total, out.Executed, out.Skipped, out.Failed, out.Retried,
		out.Elapsed.Round(time.Millisecond))
	if out.Complete() {
		m := out.Aggregate()
		fmt.Fprintf(stdout, "aggregate: runs=%d injected=%d detected=%d fp=%d accuracy=%.2f fprate=%.3f",
			m.Runs, m.Injected, m.Detected, m.FalsePositives, m.Accuracy, m.FPRate)
		if m.Delay.N > 0 {
			fmt.Fprintf(stdout, " delay=%.2fs", m.Delay.Mean)
		}
		fmt.Fprintln(stdout)
	}
	if interrupted || out.Halted {
		fmt.Fprintf(stdout, "sweep interrupted — rerun with -resume to finish (results: %s)\n", dest)
	}
	return nil
}

// runPaper regenerates the selected paper artefacts through a resumable
// campaign orchestrator: every campaign run is streamed to the results
// log and replayed from it on -resume, so one long regeneration can be
// killed and picked up any number of times.
func runPaper(ctx context.Context, opts sweep.Options, popt paper.Options, arts []paper.Artefact, dest string, stdout io.Writer) error {
	orch, err := sweep.NewOrchestrator(ctx, opts)
	if err != nil {
		return err
	}
	// The deferred Close covers panic and early-return paths so the
	// results log is always flushed; the explicit Close below surfaces
	// its error on the happy path (Close is idempotent).
	defer orch.Close()
	popt.Campaign = orch.Campaign
	paper.Generate(stdout, popt, arts)
	if err := orch.Close(); err != nil {
		return err
	}
	if err := orch.Err(); err != nil {
		return err
	}
	st := orch.Stats()
	fmt.Fprintf(stdout, "paper sweep: %d campaign runs (%d executed, %d replayed from log, %d failed)\n",
		st.Total, st.Executed, st.Skipped, st.Failed)
	if orch.Interrupted() {
		fmt.Fprintf(stdout, "regeneration interrupted — rerun with -resume to finish (results: %s)\n", dest)
	}
	return nil
}
