package core

import (
	"parastack/internal/model"
	"parastack/internal/stats"
)

// Kernel is the clock-free decision half of the paper's §3 detector:
// it folds each Scrout sample into a model, adapts the sampling
// interval by the runs test (step 2), and judges the sample against the
// model's fit, verifying a hang at k = ceil(log_q alpha) consecutive
// suspicions (steps 3–5). Monitor drives it from the probe plane, which
// owns the actuators; service.StreamMonitor drives it with adaptation
// off. Per sample a driver calls Add, applies any doubling, then Decide.
type Kernel struct {
	alpha, runsAlpha float64
	runsBatch        int
	adapt            bool

	randomOK  bool      // a runs test passed: the interval is final
	sinceRuns int       // samples since the last runs test
	streak    int       // consecutive suspicions
	fitted    bool      // some sample has been judged against a fit
	first     bool      // the latest sample was the first so judged
	fit       model.Fit // the fit the latest sample was judged against

	// k = ceil(log_kq alpha), cached against the Q it was computed for
	// (k == 0: none yet), so a refit that keeps Q does not recompute it.
	k  int
	kq float64
}

// Decision is what the kernel made of one sample. The streak, k and
// the fit behind it are read from the kernel (Streak, K, Fit).
type Decision uint8

const (
	Learning Decision = iota // the model has no fit yet
	Clear                    // no suspicion: the streak is back to 0
	Suspect                  // a suspicion, the streak still short of k
	Verify                   // the streak reached k: a candidate hang
)

// NewKernel returns a kernel with cfg's Alpha, RunsBatch, RunsAlpha and
// DisableAdaptation (zero values select the paper's defaults).
func NewKernel(cfg Config) Kernel {
	cfg = cfg.withDefaults()
	return Kernel{alpha: cfg.Alpha, runsAlpha: cfg.RunsAlpha, runsBatch: cfg.RunsBatch, adapt: !cfg.DisableAdaptation}
}

// Add folds x into md and, every RunsBatch samples until one passes,
// runs the runs test over the latest batch. It returns true when the
// test finds the sampling non-random: the driver then doubles its
// interval and halves its models before calling Decide.
func (k *Kernel) Add(md *model.Model, x float64) (double bool) {
	md.Add(x)
	if !k.adapt || k.randomOK {
		return false
	}
	if k.sinceRuns++; k.sinceRuns < k.runsBatch {
		return false
	}
	k.sinceRuns = 0
	k.randomOK = stats.RunsTest(md.Recent(k.runsBatch), k.runsAlpha).Random
	return !k.randomOK
}

// Decide judges x, the sample just added to md, against md's fit and
// advances the suspicion streak.
func (k *Kernel) Decide(md *model.Model, x float64) Decision {
	fit, ok := md.Fit()
	if !ok {
		return Learning
	}
	k.fit, k.first, k.fitted = fit, !k.fitted, true
	if x > fit.Threshold {
		k.streak = 0
		return Clear
	}
	k.streak++
	if k.k == 0 || fit.Q != k.kq {
		k.k, k.kq = stats.GeometricThreshold(fit.Q, k.alpha), fit.Q
	}
	if k.streak < k.k {
		return Suspect
	}
	return Verify
}

// Fit returns the fit the latest sample was judged against.
func (k *Kernel) Fit() model.Fit { return k.fit }

// FirstFit reports whether that sample was the first judged against a fit.
func (k *Kernel) FirstFit() bool { return k.first }

// Streak returns the consecutive suspicions up to the latest sample.
func (k *Kernel) Streak() int { return k.streak }

// K returns the streak that verifies a hang under the latest suspicion.
func (k *Kernel) K() int { return k.k }

// Veto zeroes the streak when the transient filter found the
// application alive: the suspicions so far were a slowdown.
func (k *Kernel) Veto() { k.streak = 0 }

// NewPhase zeroes the streak on a phase switch: observations from
// different regimes must not chain into one verdict.
func (k *Kernel) NewPhase() { k.streak = 0 }
