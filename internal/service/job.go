package service

import (
	"fmt"
	"time"

	"parastack/internal/detect"
	"parastack/internal/diagnose/waitfor"
	"parastack/internal/experiment"
	"parastack/internal/sweep"
	"parastack/internal/workload"
)

// JobSpec is the wire-level description of one logical job. Two kinds
// exist:
//
//   - simulation jobs (Stream false): the daemon executes the
//     (workload, platform, fault, seed) run itself, exactly as
//     experiment.Run would, and the verdict is bit-identical to an
//     in-process run of the same configuration;
//   - stream jobs (Stream true): an external feeder pushes Scrout
//     samples (see StreamSample) and the daemon runs the paper's
//     significance test over them (see StreamMonitor).
//
// String-keyed fields (Platform, Fault, Chaos) are validated against
// the live registries at admission time, so a bad job is rejected on
// submit, never mid-run.
type JobSpec struct {
	// ID is the caller-chosen job identity; it must be nonempty and
	// unique among resident jobs.
	ID string `json:"id"`

	// Stream marks an external-feeder job; every simulation field below
	// except Alpha/IntervalMS is then ignored.
	Stream bool `json:"stream,omitempty"`

	// Bench, Class, Procs select the calibrated workload (as in
	// cmd/parastack: LU/D/256, CG/D/64, ...).
	Bench string `json:"bench,omitempty"`
	Class string `json:"class,omitempty"`
	Procs int    `json:"procs,omitempty"`
	// Platform is a noise-profile name ("tardis", "tianhe2",
	// "stampede").
	Platform string `json:"platform,omitempty"`
	// Fault is a fault-kind name understood by fault.Parse ("" = none).
	Fault string `json:"fault,omitempty"`
	// Chaos is a detector-chaos profile name ("" = none).
	Chaos string `json:"chaos,omitempty"`
	// Seed drives all randomness in the run.
	Seed int64 `json:"seed"`

	// Alpha overrides the hang-test significance level (0 = 0.001).
	Alpha float64 `json:"alpha,omitempty"`
	// IntervalMS overrides the initial sampling interval I0 (0 = 400).
	IntervalMS int `json:"interval_ms,omitempty"`
	// MinFaultSec and WallLimitSec override the run bounds as in a
	// sweep spec (0 = harness defaults).
	MinFaultSec  float64 `json:"min_fault_sec,omitempty"`
	WallLimitSec float64 `json:"wall_limit_sec,omitempty"`
}

// cell materializes a simulation job into its sweep cell and run
// configuration, reusing the sweep's validation and materialization so
// a daemon-served job is configured exactly like the same cell of a
// grid sweep (and therefore like a direct experiment.Run).
func (js JobSpec) cell() (string, experiment.RunConfig, error) {
	if js.Stream {
		return "", experiment.RunConfig{}, fmt.Errorf("service: stream job has no run configuration")
	}
	fault := js.Fault
	if fault == "" {
		fault = "none"
	}
	chaos := js.Chaos
	if chaos == "" {
		chaos = "none"
	}
	spec := sweep.Spec{
		Workloads: []workload.Spec{{Name: js.Bench, Class: js.Class, Procs: js.Procs}},
		Platforms: []string{js.Platform},
		Faults:    []string{fault},
		Chaos:     []string{chaos},
		Seeds:     1,
		Seed0:     js.Seed,
		Detector: sweep.DetectorSpec{
			Monitor:    true,
			Alpha:      js.Alpha,
			IntervalMS: js.IntervalMS,
		},
		MinFaultSec:  js.MinFaultSec,
		WallLimitSec: js.WallLimitSec,
	}
	cells, err := spec.Cells()
	if err != nil {
		return "", experiment.RunConfig{}, err
	}
	rc, err := spec.RunConfig(cells[0])
	if err != nil {
		return "", experiment.RunConfig{}, err
	}
	return cells[0].Key(), rc, nil
}

// materialize validates j.spec and builds what executes it: a stream
// job's monitor, or a simulation job's cell key and run configuration.
// Submit and Recover both admit through here, so a spec that would fail
// mid-run fails at the door on either path.
func (j *job) materialize() error {
	js := j.spec
	if !js.Stream {
		key, rc, err := js.cell()
		j.key, j.rc = key, rc
		return err
	}
	// The geometric test panics on a significance level outside (0, 1),
	// and would do so on the shard goroutine at the first suspicion.
	if a := js.Alpha; a != 0 && !(a > 0 && a < 1) {
		return fmt.Errorf("service: stream job alpha %v is outside (0, 1)", a)
	}
	j.mon = NewStreamMonitor(js.Alpha, 0)
	return nil
}

// Verdict statuses.
const (
	// VerdictOK marks a job that ran to a decision (hang report or
	// clean completion).
	VerdictOK = "ok"
	// VerdictFailed marks a simulation job whose run panicked on every
	// attempt; Error holds the last panic message.
	VerdictFailed = "failed"
)

// Verdict is the daemon's answer for one job: the detector's report
// (nil when no hang was reported), the root-cause diagnosis, and the
// derived quality fields — the same information experiment.RunResult
// carries, minus the bulky observability payloads.
type Verdict struct {
	JobID string `json:"job_id"`
	// Seq is the verdict's position in decision order (1, 2, 3, …),
	// assigned when the verdict lands. It is the pagination cursor of
	// GET /verdicts?after=<seq>&limit=<n>: pass the last verdict's Seq
	// as after to fetch the next page.
	Seq int64 `json:"seq,omitempty"`
	// Key is the sweep cell key of a simulation job ("" for stream
	// jobs) — the same identity a grid sweep would log it under.
	Key    string `json:"key,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	// Completed reports that the simulated application finished (no
	// hang); stream jobs report Completed when drained without a
	// verdict.
	Completed bool `json:"completed"`
	// Report is the detector's verdict, nil when no hang was reported.
	Report *detect.Report `json:"report,omitempty"`
	// Cause and Diagnosis carry the wait-for root-cause analysis of a
	// hung simulation ("" / nil when no diagnosis ran).
	Cause     string             `json:"cause,omitempty"`
	Diagnosis *waitfor.Diagnosis `json:"diagnosis,omitempty"`

	// Detected / FalsePositive / Delay are the harness's judgement of
	// the report against the injected fault (simulation jobs only).
	Detected      bool          `json:"detected,omitempty"`
	FalsePositive bool          `json:"false_positive,omitempty"`
	Delay         time.Duration `json:"delay_ns,omitempty"`

	// Events is the simulated event count (simulation jobs only);
	// Samples is the number of Scrout samples ingested (stream jobs).
	Events  uint64 `json:"events,omitempty"`
	Samples int    `json:"samples,omitempty"`

	// IngestUS is how long the job sat in the ingest pipeline —
	// admission to worker dispatch (simulation) or admission to monitor
	// attach (stream) — in microseconds. The service benchmark's p99
	// ingest latency is the p99 of this field.
	IngestUS int64 `json:"ingest_us,omitempty"`
}

// verdictFromResult projects a run's outcome into the wire verdict.
func verdictFromResult(jobID, key string, res *experiment.RunResult) Verdict {
	return Verdict{
		JobID:         jobID,
		Key:           key,
		Status:        VerdictOK,
		Completed:     res.Completed,
		Report:        res.Report,
		Cause:         res.Cause,
		Diagnosis:     res.Diagnosis,
		Detected:      res.Detected,
		FalsePositive: res.FalsePositive,
		Delay:         res.Delay,
		Events:        res.Events,
	}
}
