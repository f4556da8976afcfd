// Command benchmark is the repository's one benchmark. BENCHMARK.json
// at the repository root is generated from its tables; README.md in
// this directory explains the workloads and every metric.
//
//	go run ./benchmark                       # all five workloads, untraced then traced
//	go run ./benchmark -repeat 2 -check      # untraced sets, gated on the bounds
//	go run ./benchmark -workload wide_serial -seed 3 -seconds 15 -trace 0
//
// With -workload it runs that one workload in this process and prints,
// as the last line of standard output, the JSON result the benchmark
// contract asks for. Without -workload it re-executes itself once per
// workload and pass, so GOMAXPROCS, heap state and VmHWM belong to one
// workload. Everything is measured from outside, through the public
// functions of the internal packages.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	outDir   string
	kernels  string
	repeat   int
	check    bool
	spec     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: inputs are generated from it")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the measured phase of a run lasts")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 keeps spans and prints the per-layer metrics, 0 prints the end-to-end metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink world sizes and repeat ceilings (tests use 0.02; numbers at another scale are not comparable)")
	flag.StringVar(&o.outDir, "out", ".bench_out", "directory for reports, traces and the daemon workload's journal and ledger")
	flag.StringVar(&o.kernels, "kernels", "", "with -workload and -trace 1: kernel metrics already measured (default: measure them in a child first)")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: run the untraced pass this many times")
	flag.BoolVar(&o.check, "check", false, "with -repeat: fail if two sets differ by more than a metric's bound")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	os.Exit(run(o, os.Stdout, os.Stderr))
}

func run(o options, stdout, stderr io.Writer) int {
	if o.spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		stdout.Write(doc)
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "benchmark: %d CPU available, need at least 2 (two workers plus a generator)\n", runtime.NumCPU())
		return 2
	}
	if o.seconds <= 0 || o.scale <= 0 || o.repeat < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -scale must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var err error
	var ok bool
	switch {
	case o.workload == "kernels":
		ok, err = true, kernelsChild(o, stdout)
	case o.workload != "":
		ok, err = workloadChild(o, stdout, stderr)
	case o.repeat > 1 || o.check:
		ok, err = repeatSets(o, stdout, stderr)
	default:
		ok, err = allWorkloads(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
	}
	return exitStatus(ok, err)
}

// exitStatus maps an outcome onto the process exit code: 0 when every
// check passed, 1 when the benchmark ran but a correctness check
// failed, 2 when it could not run.
func exitStatus(ok bool, err error) int {
	switch {
	case err != nil:
		return 2
	case !ok:
		return 1
	}
	return 0
}

func kernelsPath(outDir string) string { return filepath.Join(outDir, "kernels.json") }

// kernelsChild measures the kernels and leaves them in the out
// directory for the traced workload children.
func kernelsChild(o options, stdout io.Writer) error {
	m, err := runKernels(o.scale, o.outDir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(kernelsPath(o.outDir), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== kernels (GOMAXPROCS=1 unless stated, scale %g)\n", o.scale)
	for _, d := range perLayer {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(stdout, "   %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	return nil
}

func readKernels(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// workloadChild runs one workload in this process. A traced run needs
// two things it cannot measure inside itself — the kernels (their
// 4096-rank worlds would distort this process's heap) and an untraced
// run of the same workload (for the tracing overhead) — and obtains
// each from a child process when it has not been handed one.
func workloadChild(o options, stdout, stderr io.Writer) (bool, error) {
	if _, ok := findWorkload(o.workload); !ok {
		names := []string{}
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return false, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	cfg := childConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, scale: o.scale,
		traced: o.trace == 1, outDir: o.outDir,
	}
	if cfg.traced {
		if o.kernels == "" {
			if _, err := spawn(o, stderr, "-workload", "kernels"); err != nil {
				return false, err
			}
			o.kernels = kernelsPath(o.outDir)
		}
		var err error
		if cfg.kernels, err = readKernels(o.kernels); err != nil {
			return false, err
		}
		ref := reportPath(o.outDir, o.workload, false)
		if _, err := os.Stat(ref); err != nil {
			if _, err := spawn(o, stderr, "-workload", o.workload, "-trace", "0"); err != nil {
				return false, err
			}
		}
		if cfg.reference, err = readReport(ref); err != nil {
			return false, err
		}
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	if err := writeReport(rep, o.outDir); err != nil {
		return false, err
	}
	printReport(stdout, rep)
	line, err := json.Marshal(resultLineFor(rep))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep.Correct, nil
}

// spawn re-executes this binary with the shared flags plus extra, and
// returns its standard output. A child that fails a correctness check
// exits 1 after writing its report; that is not an error here.
func spawn(o options, stderr io.Writer, extra ...string) (out []byte, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-out", o.outDir,
	}
	cmd := exec.Command(self, append(args, extra...)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 1 {
		err = nil
	}
	if err != nil {
		return buf.Bytes(), fmt.Errorf("child %v: %w", extra, err)
	}
	return buf.Bytes(), nil
}

// runPass runs one workload and pass in a child and returns its report.
func runPass(o options, stderr io.Writer, workload string, traced bool) (*report, error) {
	extra := []string{"-workload", workload, "-trace", "0"}
	if traced {
		extra = []string{"-workload", workload, "-trace", "1", "-kernels", kernelsPath(o.outDir)}
	}
	out, err := spawn(o, stderr, extra...)
	if err != nil {
		return nil, err
	}
	// The child's last line is the contract line; hold it to the schema
	// here, so a broken line is caught by whoever runs the benchmark.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rl resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil || rl.Attempted < 1 || len(rl.Metrics) == 0 {
		return nil, fmt.Errorf("%s: last line of the child's output is not a result line: %q", workload, lines[len(lines)-1])
	}
	return readReport(reportPath(o.outDir, workload, traced))
}

// allWorkloads is the one command that prints everything: kernels,
// then every workload untraced (end-to-end metrics), then every
// workload traced (per-layer metrics), then the cross-workload check.
func allWorkloads(o options, stdout, stderr io.Writer) (bool, error) {
	out, err := spawn(o, stderr, "-workload", "kernels")
	if err != nil {
		return false, err
	}
	stdout.Write(out)
	ok := true
	reports := make(map[string]*report)
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			rep, err := runPass(o, stderr, w.name, traced)
			if err != nil {
				return false, err
			}
			printReport(stdout, rep)
			ok = ok && rep.Correct
			if !traced {
				reports[w.name] = rep
			}
		}
	}
	if detail, same := compareWide(reports["wide_serial"], reports["wide_windowed"]); same {
		fmt.Fprintf(stdout, "== check wide_windowed equals wide_serial on %s: ok\n", detail)
	} else {
		fmt.Fprintf(stdout, "== check wide_windowed equals wide_serial: FAILED: %s\n", detail)
		ok = false
	}
	if ok {
		fmt.Fprintln(stdout, "== all checks passed")
	} else {
		fmt.Fprintln(stdout, "== SOME CHECKS FAILED")
	}
	return ok, nil
}

// compareWide holds the two executors' leading runs against each other
// seed by seed.
func compareWide(serial, windowed *report) (detail string, same bool) {
	n := len(serial.Rows)
	if len(windowed.Rows) < n {
		n = len(windowed.Rows)
	}
	if n == 0 {
		return "no common runs to compare", false
	}
	for i := 0; i < n; i++ {
		if !rowsEqual(serial.Rows[i], windowed.Rows[i]) {
			return fmt.Sprintf("seed %d: serial %+v, windowed %+v", serial.Rows[i].Seed, serial.Rows[i], windowed.Rows[i]), false
		}
	}
	return fmt.Sprintf("%d seeds (events, finish time, report)", n), true
}

// repeatSets runs the untraced pass -repeat times and prints, per
// workload and end-to-end metric, the values, their median and spread.
// With -check it fails when the best and the worst set differ by more
// than the metric's bound — the rule the bounds in BENCHMARK.json were
// chosen to satisfy on unchanged code.
func repeatSets(o options, stdout, stderr io.Writer) (bool, error) {
	ok := true
	for _, w := range workloads {
		values := make(map[string][]float64)
		for set := 0; set < o.repeat; set++ {
			rep, err := runPass(o, stderr, w.name, false)
			if err != nil {
				return false, err
			}
			if !rep.Correct {
				printReport(stdout, rep)
				ok = false
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], rep.Metrics[m.Name].Value)
			}
		}
		fmt.Fprintf(stdout, "== %s: %d sets\n", w.name, o.repeat)
		for _, m := range endToEnd {
			vs := values[m.Name]
			gap := worstGap(vs, m.Better)
			verdict := ""
			if o.check && o.repeat > 1 {
				verdict = "within bound"
				if gap > m.Bound {
					verdict = "EXCEEDS BOUND"
					ok = false
				}
			}
			fmt.Fprintf(stdout, "   %-22s %-4s values=%v median=%.6g spread=%.4f gap=%.4f bound=%.2f %s\n",
				m.Name, m.Unit, formatValues(vs), median(vs), spread(vs), gap, m.Bound, verdict)
		}
	}
	return ok, nil
}

// worstGap is how much worse the worst set is than the best, as a share
// of the best.
func worstGap(vs []float64, better string) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sorted(vs)
	lo, hi := s[0], s[len(s)-1]
	if lo <= 0 {
		return 0
	}
	if better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
