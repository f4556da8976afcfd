// Package model implements ParaStack's robust runtime model of the
// Scrout statistic (paper §3.1–3.2): an empirical distribution of
// sampled Scrout values that defines what a "suspicion" is (an unusually
// low Scrout) and a credible upper bound q on the suspicion probability
// at every sample-size level, via the tolerance-error ladder
// e ∈ {0.3, 0.2, 0.1, 0.05}.
package model

import (
	"math"

	"parastack/internal/stats"
)

// ToleranceLevels is the paper's ladder of acceptable estimation errors,
// largest (cheapest) first.
var ToleranceLevels = []float64{0.3, 0.2, 0.1, 0.05}

// Fit is the model's current suspicion definition.
type Fit struct {
	// Threshold t defines a suspicion as Scrout <= t.
	Threshold float64
	// P is the achieved empirical suspicion probability Fn(t) = p_m'.
	P float64
	// E is the tolerance level the fit was accepted at.
	E float64
	// Q = min(P+E, QMax) is the credible (97.5% confidence) upper bound
	// on the true suspicion probability used by the significance test.
	Q float64
	// MinN is the sample size n_m' that justifies this fit.
	MinN int
}

// QMax caps q at the paper's ideal upper bound (p ≤ 0.47 at e = 0.3
// gives q ≤ 0.77). This keeps the geometric verification threshold
// k = ceil(log_q(alpha)) at most 27 for alpha = 0.001, which is what
// lets the monitor alternate between its two disjoint process sets
// every 30 observations and still have time to verify a hang within
// one set's window (§3.3).
const QMax = 0.77

// pMaxCandidate rejects suspicion definitions whose achieved empirical
// probability is so high that q = p + e could not upper-bound the true
// probability within QMax. Distributions denser than this at the bottom
// (e.g. an application that is almost always entirely inside MPI) are
// outside ParaStack's model, like the severe-load-imbalance case the
// paper excludes in §6.
const pMaxCandidate = 0.75

// Model accumulates Scrout samples and produces Fits. The zero value is
// not usable; call New.
//
// It keeps the history twice: in arrival order (samples, for eviction,
// Halve, Recent and snapshots) and as counted distinct values (window,
// for Fit). Add keeps both current, so refitting on every sample — the
// monitor's steady-state hot path — neither sorts nor allocates.
type Model struct {
	// samples is the arrival-order history, a view that slides through
	// buf: evicting the oldest sample advances the view by one, and
	// when it reaches the end of buf it is copied back to the front —
	// once per maxN evictions, so about one element moved per Add.
	samples []float64
	buf     []float64 // 2*maxN
	maxN    int

	// window is the same multiset as samples: its distinct values,
	// sorted, with cumulative counts.
	window stats.ECDF

	// fit memoises the last Fit. It read nothing above fitBound — the
	// t2 of the coarsest level it examined — so it stands until the
	// sample count changes or a value at or below fitBound comes or goes.
	fit      Fit
	fitOK    bool
	fitBound float64
	fitValid bool
}

// New returns a model retaining at most maxHistory samples (oldest
// evicted first). maxHistory <= 0 selects the default of 1024. The
// arrival-order buffer is sized once, when the first sample arrives;
// the window grows to the most distinct values it has held at once,
// which for Scrout is a few dozen, not maxHistory.
func New(maxHistory int) *Model {
	if maxHistory <= 0 {
		maxHistory = 1024
	}
	return &Model{maxN: maxHistory}
}

// grow sizes the arrival-order buffer for maxN samples.
func (m *Model) grow() {
	m.buf = make([]float64, 2*m.maxN)
	m.samples = m.buf[:0]
}

// Reset empties the model and keeps its buffers, so a campaign can hand
// one model from run to run instead of growing 24 KB per run.
func (m *Model) Reset() {
	m.samples = m.buf[:0]
	m.window.Reset(nil)
	m.fitValid = false
}

// canon prepares a sample for the window: NaN has no place in a sorted
// order (feeders validate; see service.Feed), and -0 becomes +0 so that
// equal samples are bit-equal and a fit does not depend on which of two
// equal values a sort happened to put first.
func canon(s float64) float64 {
	if s != s {
		panic("model: NaN sample")
	}
	if s == 0 {
		return 0
	}
	return s
}

// Add appends one Scrout sample, evicting the oldest at capacity.
func (m *Model) Add(s float64) {
	s = canon(s)
	if len(m.samples) < m.maxN {
		if m.buf == nil {
			m.grow()
		}
		m.samples = append(m.samples, s)
		m.window.Insert(s)
		m.fitValid = false
		return
	}
	old := m.samples[0]
	if !m.window.Replace(old, s) {
		panic("model: evicted sample missing from the sorted window")
	}
	if old <= m.fitBound || s <= m.fitBound {
		m.fitValid = false
	}
	if cap(m.samples) == len(m.samples) {
		copy(m.buf, m.samples[1:])
		m.samples = m.buf[:m.maxN-1]
	} else {
		m.samples = m.samples[1:]
	}
	m.samples = append(m.samples, s)
}

// N returns the current sample count.
func (m *Model) N() int { return len(m.samples) }

// Samples returns the retained samples, oldest first (not a copy: do
// not mutate, and do not hold across an Add).
func (m *Model) Samples() []float64 { return m.samples }

// Recent returns up to the k most recent samples, oldest first (under
// the same terms as Samples).
func (m *Model) Recent(k int) []float64 {
	if k >= len(m.samples) {
		return m.samples
	}
	return m.samples[len(m.samples)-k:]
}

// Halve decimates the history, keeping every second sample. The paper
// applies this when the sampling interval I is doubled: samples taken
// at mean interval I are twice as dense as samples at 2I, so keeping
// every other one re-normalizes the history to the new interval.
func (m *Model) Halve() {
	out := m.buf[:0]
	for i := 1; i < len(m.samples); i += 2 {
		out = append(out, m.samples[i])
	}
	m.samples = out
	m.window.Reset(m.samples)
	m.fitValid = false
}

// Restore replaces the history with samples (oldest first; the most
// recent maxHistory are kept) — how a checkpointed model comes back.
func (m *Model) Restore(samples []float64) {
	if len(samples) > m.maxN {
		samples = samples[len(samples)-m.maxN:]
	}
	if m.buf == nil {
		m.grow()
	}
	m.samples = m.buf[:0]
	for _, s := range samples {
		m.samples = append(m.samples, canon(s))
	}
	m.window.Reset(m.samples)
	m.fitValid = false
}

// optimalP minimizes n(p) = max(5/p, z²·p(1-p)/e²) over p ∈ (0, 0.5] by
// ternary search (the function is unimodal: max of a decreasing and an
// increasing function).
func optimalP(e float64) float64 {
	lo, hi := 1e-4, 0.5
	f := func(p float64) float64 {
		return math.Max(5/p, stats.Z95Sq*p*(1-p)/(e*e))
	}
	for i := 0; i < 80; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) < f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}

// levelP[i] is optimalP(ToleranceLevels[i]). The optima depend on
// nothing but the ladder's constants, so the search runs once here and
// not four times per fit. They shrink with the tolerance: a finer level
// looks lower in the window than a coarser one, which is what lets Fit
// bound everything it read by the last level it examined.
var levelP = func() []float64 {
	ps := make([]float64, len(ToleranceLevels))
	for i, e := range ToleranceLevels {
		ps[i] = optimalP(e)
		if i > 0 && ps[i] >= ps[i-1] {
			panic("model: optimalP does not decrease along the tolerance ladder")
		}
	}
	return ps
}()

// fitAtLevel realizes the tolerance level e on the discrete empirical
// distribution: around the analytic optimum p_m = optimalP(e) it considers
// t1 = max{X : Fn(X) < p_m} and t2 = min{X : Fn(X) >= p_m} and picks
// the one whose achieved probability needs the smaller sample size
// (paper §3.2). ok is false when no usable candidate exists (e.g. a
// degenerate distribution where every candidate probability is ~1).
func fitAtLevel(ecdf *stats.ECDF, e, pm float64) (Fit, bool) {
	t2 := ecdf.Quantile(pm)
	type cand struct {
		t, p float64
		n    int
	}
	var cands [2]cand // at most t2 and t1; fixed-size to avoid heap churn
	nc := 0
	if p2 := ecdf.F(t2); p2 > 0 && p2 < pMaxCandidate {
		cands[nc] = cand{t2, p2, stats.RequiredSampleSize(p2, e)}
		nc++
	}
	if t1, ok := ecdf.Below(t2); ok {
		if p1 := ecdf.F(t1); p1 > 0 && p1 < pMaxCandidate {
			cands[nc] = cand{t1, p1, stats.RequiredSampleSize(p1, e)}
			nc++
		}
	}
	if nc == 0 {
		return Fit{}, false
	}
	best := cands[0]
	for _, c := range cands[1:nc] {
		if c.n < best.n {
			best = c
		}
	}
	q := best.p + e
	if q > QMax {
		q = QMax
	}
	return Fit{Threshold: best.t, P: best.p, E: e, Q: q, MinN: best.n}, true
}

// Fit returns the finest-tolerance fit the current sample size
// justifies (n >= n_m' at that level), or ok == false if even the
// coarsest level (e = 0.3) is not yet justified — the model-building
// phase of the paper.
func (m *Model) Fit() (Fit, bool) {
	n := len(m.samples)
	if n == 0 {
		return Fit{}, false
	}
	if m.fitValid {
		return m.fit, m.fitOK
	}
	// Try finest tolerance first: 0.05, 0.1, 0.2, 0.3.
	i := len(ToleranceLevels) - 1
	for ; i >= 0; i-- {
		f, ok := fitAtLevel(&m.window, ToleranceLevels[i], levelP[i])
		if ok && n >= f.MinN {
			m.fit, m.fitOK = f, true
			break
		}
	}
	if i < 0 {
		m.fit, m.fitOK, i = Fit{}, false, 0
	}
	m.fitBound, m.fitValid = m.window.Quantile(levelP[i]), true
	return m.fit, m.fitOK
}

// Ready reports whether enough samples have accumulated for hang
// detection to be active.
func (m *Model) Ready() bool {
	_, ok := m.Fit()
	return ok
}
