// Command psbench regenerates the tables of the ParaStack paper's
// evaluation on the simulated substrate.
//
// Usage:
//
//	psbench -table 1           # Table 1 (fixed-timeout baseline)
//	psbench -table 3           # Table 3 (stack-trace overhead)
//	psbench -table 4           # Table 4 (overhead @256 tardis)
//	psbench -table 5           # Table 5 / Fig 8 (overhead @1024 tianhe2)
//	psbench -table 6           # Table 6 (+7, 8, 10 share campaigns)
//	psbench -table 7|8|10      # delay / identification tables
//	psbench -table 9           # Table 9 (P vs P*)
//	psbench -fp                # false-positive study (§7.1-II)
//	psbench -scale             # large-scale study (§7.1-III)
//	psbench -cause             # root-cause diagnosis accuracy table
//	psbench -all               # everything
//
// -runs N scales every campaign (default: small shape-preserving
// counts; the paper's full counts are noted in each header and take
// hours of CPU). -maxscale caps the scale study (default 4096).
//
// -trace FILE writes every campaign run's structured events as JSONL
// (runs are tagged with their seed via the "run" key); -metrics prints
// counter totals aggregated across all runs at the end. See the
// "Observability" section of README.md for the schema.
//
// -bench-json FILE runs the fixed engine/monitor/campaign
// microbenchmark suite and writes the measurements (ns/op, allocs/op,
// events/sec) to FILE; -bench-scale-json FILE does the same for the
// rank-count scaling sweep (256 → 131072 ranks, every figure averaged
// over at least three full runs); -bench-service-json
// FILE does the same for the parastackd service suite (jobs/sec, p99
// ingest latency, stream samples/sec). See the "Benchmarks" section of
// README.md for the schema. `make bench-json` regenerates the
// checked-in BENCH_engine.json, BENCH_scale.json, and
// BENCH_service.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"parastack/internal/bench"
	"parastack/internal/obs"
	"parastack/internal/paper"
)

func main() { os.Exit(run()) }

// run is main behind an exit code: os.Exit lives only in main, so the
// deferred trace-sink Close runs on every exit path — before this
// restructure, the "nothing selected" usage exit skipped it and could
// lose buffered trace events.
func run() int {
	table := flag.Int("table", 0, "table number to regenerate (1,3,4,5,6,7,8,9,10)")
	fp := flag.Bool("fp", false, "run the false-positive study")
	scale := flag.Bool("scale", false, "run the large-scale study")
	cause := flag.Bool("cause", false, "run the root-cause diagnosis accuracy table")
	all := flag.Bool("all", false, "regenerate every table")
	runs := flag.Int("runs", 0, "runs per configuration (0 = small default)")
	seed := flag.Int64("seed", 1, "base random seed")
	maxScale := flag.Int("maxscale", 4096, "largest rank count for -scale")
	traceFile := flag.String("trace", "", "write a JSONL event trace of every run to this file")
	metrics := flag.Bool("metrics", false, "print counter totals over all runs at the end")
	benchJSON := flag.String("bench-json", "", "run the microbenchmark suite and write results to this file")
	benchScaleJSON := flag.String("bench-scale-json", "", "run the rank-count scaling suite and write results to this file")
	benchServiceJSON := flag.String("bench-service-json", "", "run the daemon throughput suite and write results to this file")
	flag.Parse()

	if *benchJSON != "" || *benchScaleJSON != "" || *benchServiceJSON != "" {
		if *benchJSON != "" {
			if err := runBenchJSON(*benchJSON); err != nil {
				fmt.Fprintln(os.Stderr, "psbench:", err)
				return 1
			}
		}
		if *benchScaleJSON != "" {
			if err := runBenchScaleJSON(*benchScaleJSON); err != nil {
				fmt.Fprintln(os.Stderr, "psbench:", err)
				return 1
			}
		}
		if *benchServiceJSON != "" {
			if err := runBenchServiceJSON(*benchServiceJSON); err != nil {
				fmt.Fprintln(os.Stderr, "psbench:", err)
				return 1
			}
		}
		return 0
	}

	opt := paper.Options{Runs: *runs, Seed: *seed, MaxScale: *maxScale}
	if *traceFile != "" {
		sink, err := obs.OpenJSONL(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 2
		}
		defer sink.Close()
		opt.Trace = sink
	}
	if *metrics {
		opt.Stats = obs.NewTotals()
	}
	w := os.Stdout
	start := time.Now()

	need := func(n int) bool {
		if *table == 678 && (n == 7 || n == 8 || n == 10) {
			return true
		}
		return *all || *table == n
	}

	// Tables 6/7/8/10 and Figure 9 share the accuracy campaigns; asking
	// for any of them prints all four.
	var campaigns map[string][]paper.AccuracyCell
	needsCampaigns := *all || *table == 6 || *table == 7 || *table == 8 || *table == 10
	if needsCampaigns && !*all {
		*table = 678 // sentinel: print 7, 8, 10 too
	}

	switch {
	case *table == 0 && !*fp && !*scale && !*cause && !*all:
		flag.Usage()
		return 2
	}

	if need(1) {
		paper.Table1(w, opt)
		fmt.Fprintln(w)
	}
	if need(3) {
		paper.Table3(w, opt)
		fmt.Fprintln(w)
	}
	if need(4) {
		paper.Table4(w, opt)
		fmt.Fprintln(w)
	}
	if need(5) {
		paper.Table5(w, opt)
		fmt.Fprintln(w)
	}
	if needsCampaigns {
		campaigns = paper.Table6(w, opt)
		fmt.Fprintln(w)
	}
	if need(7) {
		paper.Table7(w, campaigns, opt)
		fmt.Fprintln(w)
	}
	if need(8) {
		paper.Table8(w, campaigns, opt)
		fmt.Fprintln(w)
	}
	if need(9) {
		paper.Table9(w, opt)
		fmt.Fprintln(w)
	}
	if need(10) {
		paper.Table10(w, campaigns, opt)
		fmt.Fprintln(w)
	}
	if *cause || *all {
		paper.CauseTable(w, opt)
		fmt.Fprintln(w)
	}
	if *fp || *all {
		paper.FalsePositiveStudy(w, opt)
		fmt.Fprintln(w)
	}
	if *scale || *all {
		paper.ScaleStudy(w, opt)
		fmt.Fprintln(w)
	}
	if opt.Stats != nil {
		fmt.Fprintf(w, "counter totals over %d runs:\n", opt.Stats.Runs())
		for _, name := range opt.Stats.Names() {
			fmt.Fprintf(w, "  %-28s %d\n", name, opt.Stats.Counter(name))
		}
	}
	fmt.Fprintf(w, "(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runBenchJSON runs the fixed microbenchmark suite, writes the JSON
// artifact, and echoes a human-readable summary to stdout.
func runBenchJSON(path string) error {
	start := time.Now()
	fmt.Printf("running microbenchmark suite (this takes a minute)...\n")
	rep := bench.RunSuite()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	bench.WriteSummary(os.Stdout, rep)
	fmt.Printf("wrote %s (wall time %v)\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// runBenchServiceJSON runs the daemon throughput suite, writes the JSON
// artifact, and echoes a human-readable summary to stdout.
func runBenchServiceJSON(path string) error {
	start := time.Now()
	fmt.Printf("running service throughput suite (bursts of real CG runs through the daemon)...\n")
	rep := bench.RunServiceSuite()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	bench.WriteSummary(os.Stdout, rep)
	fmt.Printf("wrote %s (wall time %v)\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// runBenchScaleJSON runs the rank-count scaling sweep, writes the JSON
// artifact, and echoes a human-readable summary to stdout.
func runBenchScaleJSON(path string) error {
	start := time.Now()
	fmt.Printf("running rank-count scaling suite (serial + parallel rows to 131072 ranks; the biggest points take minutes per row)...\n")
	rep := bench.RunScaleSuite()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	bench.WriteSummary(os.Stdout, rep)
	fmt.Printf("wrote %s (wall time %v)\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}
