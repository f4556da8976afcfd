package service

import (
	"time"

	"parastack/internal/core"
	"parastack/internal/detect"
	"parastack/internal/model"
)

// StreamSample is one externally observed Scrout value: the fraction of
// sampled processes executing outside MPI at virtual (or wall) time T.
type StreamSample struct {
	// TUS is the sample's timestamp in microseconds (monotone per job).
	TUS int64 `json:"t_us"`
	// Scrout is the observed statistic, in [0, 1] times the sampled set
	// size (the monitor's convention: a count-like fraction).
	Scrout float64 `json:"scrout"`
}

// StreamMonitor runs ParaStack's statistical hang test over an
// externally fed Scrout sample stream — the daemon's detector for jobs
// whose application runs outside the simulator (Scrout collectors on a
// real cluster, replayed traces). It drives the detection kernel that
// core.Monitor drives (core.Kernel), with interval adaptation off: the
// feeder owns its sampling cadence. The probe plane's features need a
// live world and are absent — monitor-set rotation, the
// transient-slowdown filter, and faulty-rank identification — so a
// stream verdict is always a communication-type report with no faulty
// ranks. A StreamMonitor is not safe for concurrent use; the service
// serializes each job's samples through its shard.
type StreamMonitor struct {
	m      *model.Model
	k      core.Kernel
	n      int
	report *detect.Report
}

// NewStreamMonitor returns a stream detector with significance level
// alpha (0 = the paper's 0.001) and a model history bound of
// maxHistory samples (0 = 1024).
func NewStreamMonitor(alpha float64, maxHistory int) *StreamMonitor {
	return &StreamMonitor{
		m: model.New(maxHistory),
		k: core.NewKernel(core.Config{Alpha: alpha, DisableAdaptation: true}),
	}
}

// Ingest folds one sample into the model and returns the verdict if
// this sample completed a significant suspicion streak (nil otherwise).
// Samples arriving after a verdict are counted but change nothing.
func (sm *StreamMonitor) Ingest(s StreamSample) *detect.Report {
	sm.n++
	if sm.report != nil {
		return sm.report
	}
	sm.k.Add(sm.m, s.Scrout) // adaptation is off: never asks to double
	if sm.k.Decide(sm.m, s.Scrout) != core.Verify {
		return nil
	}
	fit := sm.k.Fit()
	sm.report = &detect.Report{
		DetectedAt: time.Duration(s.TUS) * time.Microsecond,
		Type:       detect.HangCommunication,
		Suspicions: sm.k.Streak(),
		Q:          fit.Q,
		Threshold:  fit.Threshold,
	}
	return sm.report
}

// Report returns the verdict, nil if no hang has been verified.
func (sm *StreamMonitor) Report() *detect.Report { return sm.report }

// Samples reports how many samples have been ingested.
func (sm *StreamMonitor) Samples() int { return sm.n }
