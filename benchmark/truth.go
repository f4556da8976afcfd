package main

import (
	"fmt"
	"math"

	"parastack/internal/diagnose/waitfor"
	"parastack/internal/experiment"
	"parastack/internal/fault"
)

// Ground truth for simulated runs and daemon jobs.
//
// An injected fault must be detected, with the cause the fault kind
// implies; a clean run must complete with no report. Anything else is a
// wrong verdict and fails the run — with one exception the paper itself
// defines. ParaStack is a statistical test: a false positive (a report
// the injected fault cannot explain) is allowed with probability at
// most alpha per run. Probing found 3 in 9600 FT/D/64 jobs at the
// default alpha of 0.001, so a daemon run of 2300 jobs meets one every
// other run. False positives are therefore counted, reported in
// bench.verdict_correct_ratio, and fail the run only when there are
// more of them than alpha allows.

// detectorAlpha is the significance level every workload runs at (the
// zero-value core.Config and JobSpec).
const detectorAlpha = 0.001

type outcome int

const (
	outcomeCorrect outcome = iota
	outcomeFalsePositive
	outcomeWrong
)

// classify holds one verdict against the fault that was injected.
func classify(kind fault.Kind, completed, detected, falsePositive, reported bool, cause string) outcome {
	switch {
	case falsePositive:
		return outcomeFalsePositive
	case kind == fault.None && completed && !reported:
		return outcomeCorrect
	case kind != fault.None && detected && cause == string(waitfor.ExpectedCause(kind)):
		return outcomeCorrect
	}
	return outcomeWrong
}

func classifyRun(kind fault.Kind, res *experiment.RunResult) outcome {
	reported := res.Report != nil || res.TimeoutReport != nil
	return classify(kind, res.Completed, res.Detected, res.FalsePositive, reported, res.Cause)
}

// fpAllowance is the largest number of false positives among n
// independent runs that a per-run probability of alpha still explains:
// the smallest m with P(X > m) < 1e-6 for X ~ Binomial(n, alpha). More
// than that is not the paper's bound at work but a broken detector.
func fpAllowance(n int, alpha float64) int {
	const significance = 1e-6
	// P(X = k), accumulated upwards from k = 0.
	p := math.Pow(1-alpha, float64(n))
	cdf := p
	for m := 0; m < n; m++ {
		if 1-cdf < significance {
			return m
		}
		p *= float64(n-m) / float64(m+1) * alpha / (1 - alpha)
		cdf += p
	}
	return n
}

// truthTally accumulates outcomes and turns them into checks.
type truthTally struct {
	n, correct, falsePositives, wrong int
	details                           []string // the first few verdicts that were not correct
}

func (t *truthTally) add(o outcome, describe func() string) {
	t.n++
	switch o {
	case outcomeCorrect:
		t.correct++
		return
	case outcomeFalsePositive:
		t.falsePositives++
	default:
		t.wrong++
	}
	if len(t.details) < 4 {
		t.details = append(t.details, describe())
	}
}

// publish records the two ground-truth checks and the ratio.
func (t *truthTally) publish(c *runCtx) {
	allowed := fpAllowance(t.n, detectorAlpha)
	c.check("ground_truth", t.wrong == 0, "%d of %d verdicts contradict the injected fault: %v", t.wrong, t.n, t.details)
	c.check("false_positives_within_alpha", t.falsePositives <= allowed,
		"%d false positives in %d runs, alpha=%g allows %d: %v", t.falsePositives, t.n, detectorAlpha, allowed, t.details)
	c.counts["false_positives"] = t.falsePositives
	if t.n > 0 {
		c.set("bench.verdict_correct_ratio", float64(t.correct)/float64(t.n))
	}
}

func describeRun(key string, kind fault.Kind, res *experiment.RunResult) func() string {
	return func() string {
		return fmt.Sprintf("%s fault=%s completed=%v detected=%v false_positive=%v cause=%q",
			key, kind, res.Completed, res.Detected, res.FalsePositive, res.Cause)
	}
}
