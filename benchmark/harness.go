package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadDef names one workload and how to build a fresh instance.
type workloadDef struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// procs is the GOMAXPROCS the workload runs at.
	procs int
	new   func() workloadRun
}

// workloadRun is one workload instance inside its child process.
type workloadRun interface {
	// setup generates the inputs from the seed, builds the program
	// under test and warms it. It is called setupRepeats times, each
	// time after discard, and timed as setup_s.
	setup(c *runCtx) error
	// discard drops what setup built.
	discard()
	// measure runs the measured phase for c.seconds and then the
	// correctness checks, filling c.
	measure(c *runCtx) error
}

var workloads = []workloadDef{
	{
		name:  "campaign_narrow",
		why:   "200-cell paper campaign (4 NPB x 5 fault kinds x 10 seeds, 64 ranks) on 2 workers, ~165 runs in 15 s: per-run fixed cost, detector and wait-for diagnosis carry weight",
		procs: 2,
		new:   func() workloadRun { return &campaignNarrow{} },
	},
	{
		name:  "wide_serial",
		why:   "one 4096-rank CG world (30 iters, 400ms compute) per run, serial executor, GOMAXPROCS=1, ~8 runs in 15 s: sim dispatch/handoff and mpi matching do nearly all the work",
		procs: 1,
		new:   func() workloadRun { return &wide{parallel: 0} },
	},
	{
		name:  "wide_windowed",
		why:   "the same 4096-rank inputs on the windowed executor (Parallel=1), ~11 runs in 15 s: a gain for one executor that costs the other must show; results must equal wide_serial",
		procs: 1,
		new:   func() workloadRun { return &wide{parallel: 1} },
	},
	{
		name:  "stream_ingest",
		why:   "4 external Scrout streams fed in 1024-sample batches through the default service, ~3.3M samples in 15 s: no simulator, model add+refit is most of every sample",
		procs: 2,
		new:   func() workloadRun { return &streamIngest{} },
	},
	{
		name:  "daemon_durable",
		why:   "small FT/64 jobs through a service with fsynced journal and Merkle ledger: 1000 jobs open loop at 100/s for latency, ~1300 closed loop for capacity, then recover and verify",
		procs: 2,
		new:   func() workloadRun { return &daemonDurable{} },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// checkResult is one named correctness check.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runRow is one simulator run's deterministic outcome, kept so that
// wide_windowed can be compared with wide_serial seed by seed and so
// that the fingerprint can be recomputed by a reviewer.
type runRow struct {
	Seed       int64  `json:"seed"`
	Key        string `json:"key,omitempty"`
	Events     uint64 `json:"events"`
	FinishedAt int64  `json:"finished_at_ns"`
	DetectedAt int64  `json:"detected_at_ns"`
	Cause      string `json:"cause,omitempty"`
	Report     string `json:"report,omitempty"` // digest of the detector report, "" when none
}

// runCtx carries one child's parameters in and its results out.
type runCtx struct {
	seed    int64
	seconds float64
	scale   float64
	outDir  string
	tr      *tracer // nil on the untraced pass

	metrics   map[string]float64
	attempted int
	failed    int
	checks    []checkResult
	counts    map[string]int
	rows      []runRow
}

func (c *runCtx) set(name string, v float64) { c.metrics[name] = v }

func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	cr := checkResult{Name: name, OK: ok}
	if !ok {
		cr.Detail = fmt.Sprintf(format, args...)
	}
	c.checks = append(c.checks, cr)
}

// scaleCount shrinks a repeat count or size by -scale, never below min.
func scaleCount(n, min int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > min {
		return v
	}
	return min
}

func (c *runCtx) scaled(n, min int) int { return scaleCount(n, min, c.scale) }

// measured is how long the measured phase lasts.
func (c *runCtx) measured() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// fingerprint hashes the deterministic outcome of the workload's fixed
// leading runs. It is printed for reviewers to compare a parent against
// a change and is deliberately not pinned anywhere.
func fingerprint(rows []runRow) string {
	if len(rows) == 0 {
		return ""
	}
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s\n", r.Seed, r.Events, r.FinishedAt, r.DetectedAt, r.Cause)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one child measured, written to
// <out>/<workload>.trace<0|1>.json.
type report struct {
	Workload    string                 `json:"workload"`
	Traced      bool                   `json:"traced"`
	Env         environment            `json:"env"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Checks      []checkResult          `json:"checks"`
	Counts      map[string]int         `json:"counts"`
	Fingerprint string                 `json:"sim_fingerprint,omitempty"`
	Rows        []runRow               `json:"rows,omitempty"`
	SelfS       map[string]float64     `json:"self_s,omitempty"`
	TraceFile   string                 `json:"trace_file,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func reportPath(outDir, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, t))
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

type childConfig struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	traced   bool
	outDir   string
	// kernels carries the kernel metrics into a traced workload child
	// (measured by the separate kernels child, so their 4096-rank worlds
	// never touch this workload's heap or VmHWM).
	kernels map[string]float64
	// reference is the untraced report of the same workload, for
	// bench.trace_overhead_ratio; nil when tracing is off.
	reference *report
}

// runWorkload executes one workload in this process and returns its
// report. The caller owns process-level concerns (GOMAXPROCS is set
// here and left set: one process runs one workload).
func runWorkload(cfg childConfig) (*report, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(def.procs)
	c := &runCtx{
		seed: cfg.seed, seconds: cfg.seconds, scale: cfg.scale, outDir: cfg.outDir,
		metrics: make(map[string]float64), counts: make(map[string]int),
	}
	env := readEnvironment(cfg.seed, cfg.seconds, cfg.scale)

	w := def.new()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.discard()
			runtime.GC()
		}
		if cfg.traced {
			// A fresh tracer per set-up: spans of a discarded set-up's
			// warm-up would otherwise sit in the trace without a root.
			c.tr = newTracer(cfg.workload)
		}
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", median(setups))
	c.counts["setup_repeats"] = setupRepeats

	runtime.GC()
	cpu0, t0 := cpuSeconds(), time.Now()
	if err := w.measure(c); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	w.discard()

	c.set("bench.wall_s", wall)
	c.set("bench.cpu_s", cpu)
	if wall > 0 {
		c.set("bench.cpu_util", cpu/wall)
	}
	c.set("bench.peak_rss_mb", peakRSSMB())
	if c.attempted > 0 {
		c.set("bench.fail_ratio", float64(c.failed)/float64(c.attempted))
	}
	for k, v := range cfg.kernels {
		c.set(k, v)
	}
	if ref := cfg.reference; ref != nil {
		// Runs are time-bounded, so the overhead shows as work lost:
		// untraced rate / traced rate - 1 is traced wall / untraced wall
		// - 1 for equal work.
		if traced := c.metrics["work_per_s"]; traced > 0 {
			c.set("bench.trace_overhead_ratio", ref.Metrics["work_per_s"].Value/traced-1)
		}
	}

	rep := c.report(cfg.workload, cfg.traced, env)
	if cfg.traced {
		rep.SelfS = selfSecondsByKind(c.tr.snapshot())
		rep.TraceFile = filepath.Join(cfg.outDir, "trace_"+cfg.workload+".jsonl")
		if err := c.tr.writeFile(rep.TraceFile); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return rep, nil
}

// report assembles what the workload left in c. A run is correct when
// no operation failed and every check passed; that flag is the child's
// exit status.
func (c *runCtx) report(workload string, traced bool, env environment) *report {
	rep := &report{
		Workload: workload, Traced: traced, Env: env,
		Attempted: c.attempted, Failed: c.failed,
		Metrics: make(map[string]metricValue), Checks: c.checks, Counts: c.counts,
		Fingerprint: fingerprint(c.rows), Rows: c.rows,
	}
	rep.Correct = c.failed == 0
	for _, ch := range c.checks {
		rep.Correct = rep.Correct && ch.OK
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metricValue{c.metrics[m.Name], m.Unit}
	}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.Name] = metricValue{c.metrics[m.Name], m.Unit}
		}
	}
	return rep
}

// writeReport saves rep beside the traces.
func writeReport(rep *report, outDir string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, rep.Workload, rep.Traced), append(data, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, the checks and
// the provenance, for a human.
func printReport(w io.Writer, rep *report) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	e := rep.Env
	fmt.Fprintf(w, "== %s (%s pass)\n", rep.Workload, pass)
	fmt.Fprintf(w, "   env: num_cpu=%d gomaxprocs=%d %s %s/%s kernel=%s commit=%s dirty=%v load1=%.2f seed=%d seconds=%g scale=%g\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.Kernel, e.Commit, e.Dirty, e.Load1, e.Seed, e.Seconds, e.Scale)
	fmt.Fprintf(w, "   counts: %s\n", formatCounts(rep.Counts))
	if rep.Fingerprint != "" {
		fmt.Fprintf(w, "   sim_fingerprint: %s (over %d leading runs)\n", rep.Fingerprint, len(rep.Rows))
	}
	for _, name := range metricOrder(rep) {
		mv := rep.Metrics[name]
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", name, mv.Value, mv.Unit)
	}
	kinds := make([]string, 0, len(rep.SelfS))
	for k := range rep.SelfS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "   self time %-24s %16.6g s\n", k, rep.SelfS[k])
	}
	for _, ch := range rep.Checks {
		status := "ok"
		if !ch.OK {
			status = "FAILED: " + ch.Detail
		}
		fmt.Fprintf(w, "   check %-40s %s\n", ch.Name, status)
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
}

// metricOrder lists the report's metrics in table order.
func metricOrder(rep *report) []string {
	var names []string
	for _, m := range endToEnd {
		if _, ok := rep.Metrics[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	return names
}

func formatCounts(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, counts[k])
	}
	return s
}

// resultLineFor builds the contract line: end-to-end metrics on the
// untraced pass, per-layer metrics on the traced one.
func resultLineFor(rep *report) resultLine {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	rl := resultLine{Correct: rep.Correct, Attempted: attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range defs {
		rl.Metrics[m.Name] = rep.Metrics[m.Name]
	}
	return rl
}
