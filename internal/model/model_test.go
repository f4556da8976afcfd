package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parastack/internal/stats"
)

func TestOptimalPMatchesPaperAnchors(t *testing.T) {
	// Figure 5 anchors: e → (pm, nm).
	cases := []struct {
		e, pm float64
		nm    int
	}{
		{0.3, 0.47, 11},
		{0.2, 0.27, 19},
		{0.1, 0.12, 42},
		{0.05, 0.06, 87}, // paper rounds to 86; exact bound ceils to 87
	}
	for _, c := range cases {
		p := optimalP(c.e)
		if math.Abs(p-c.pm) > 0.02 {
			t.Errorf("optimalP(%v) = %v, want ≈%v", c.e, p, c.pm)
		}
		n := stats.RequiredSampleSize(p, c.e)
		if n < c.nm-1 || n > c.nm+1 {
			t.Errorf("n at optimum for e=%v is %d, want ≈%d", c.e, n, c.nm)
		}
	}
}

func TestModelNotReadyWhenEmptyOrTiny(t *testing.T) {
	m := New(0)
	if m.Ready() {
		t.Fatal("empty model ready")
	}
	for i := 0; i < 5; i++ {
		m.Add(float64(i%3) / 10)
	}
	if m.Ready() {
		t.Fatal("5-sample model should not be ready (needs ~11)")
	}
}

func TestModelReadyAfterCoarseLevel(t *testing.T) {
	m := New(0)
	rng := rand.New(rand.NewSource(1))
	// Healthy-looking Scrout samples over {0, 0.1, ..., 1.0}.
	for i := 0; i < 16; i++ {
		m.Add(float64(rng.Intn(11)) / 10)
	}
	fit, ok := m.Fit()
	if !ok {
		t.Fatalf("16 diverse samples should fit at e=0.3; samples=%v", m.Samples())
	}
	if fit.E != 0.3 && fit.E != 0.2 {
		t.Fatalf("fit level = %v, expected a coarse level at n=16", fit.E)
	}
	if fit.Q <= fit.P || fit.Q > QMax {
		t.Fatalf("q = %v must be p+e (p=%v) capped at %v", fit.Q, fit.P, QMax)
	}
}

func TestFitRefinesWithMoreSamples(t *testing.T) {
	m := New(0)
	rng := rand.New(rand.NewSource(2))
	var levels []float64
	for i := 0; i < 300; i++ {
		m.Add(float64(rng.Intn(11)) / 10)
		if f, ok := m.Fit(); ok {
			levels = append(levels, f.E)
		}
	}
	if len(levels) == 0 {
		t.Fatal("model never became ready")
	}
	// Tolerance must (weakly) tighten over time and end at 0.05.
	last := levels[len(levels)-1]
	if last != 0.05 {
		t.Fatalf("final tolerance = %v, want 0.05 with 300 samples", last)
	}
	// The first achieved level must be the coarsest achieved overall.
	if levels[0] < last {
		t.Fatalf("tolerance started finer (%v) than it ended (%v)", levels[0], last)
	}
}

func TestSuspicionThresholdIsLowQuantile(t *testing.T) {
	m := New(0)
	rng := rand.New(rand.NewSource(3))
	// 90% of samples high (0.5..1.0), 10% zero.
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.1 {
			m.Add(0)
		} else {
			m.Add(0.5 + float64(rng.Intn(6))/10)
		}
	}
	fit, ok := m.Fit()
	if !ok {
		t.Fatal("model not ready")
	}
	if fit.Threshold > 0.11 {
		t.Fatalf("threshold = %v; suspicion should single out the rare zeros", fit.Threshold)
	}
	if fit.P > 0.2 {
		t.Fatalf("achieved p = %v, want ≈0.1", fit.P)
	}
}

func TestDegenerateDistributionNotReady(t *testing.T) {
	// All samples equal: Fn(x)=1 at the only value; no usable suspicion
	// probability exists, the model must refuse to fit.
	m := New(0)
	for i := 0; i < 500; i++ {
		m.Add(0.6)
	}
	if m.Ready() {
		t.Fatal("degenerate model must not be ready")
	}
}

func TestFrequentZerosYieldLargeQ(t *testing.T) {
	// An FT(E)-like distribution where Scrout is very often 0 (long
	// all-to-alls): zero must not be a cheap suspicion — q must be
	// large so that verification needs many consecutive zeros.
	m := New(0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		if rng.Float64() < 0.45 {
			m.Add(0)
		} else {
			m.Add(0.2 + float64(rng.Intn(9))/10)
		}
	}
	fit, ok := m.Fit()
	if !ok {
		t.Fatal("model not ready")
	}
	if fit.Threshold != 0 {
		t.Fatalf("threshold = %v, want 0", fit.Threshold)
	}
	if fit.Q < 0.4 {
		t.Fatalf("q = %v; with 45%% zeros q must be large", fit.Q)
	}
	k := stats.GeometricThreshold(fit.Q, 0.001)
	if k < 8 {
		t.Fatalf("verification needs only %d consecutive suspicions; too trigger-happy", k)
	}
}

func TestHalveDecimates(t *testing.T) {
	m := New(0)
	for i := 0; i < 10; i++ {
		m.Add(float64(i))
	}
	m.Halve()
	want := []float64{1, 3, 5, 7, 9}
	got := m.Samples()
	if len(got) != len(want) {
		t.Fatalf("halved = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("halved = %v, want %v", got, want)
		}
	}
}

func TestHistoryCap(t *testing.T) {
	m := New(8)
	for i := 0; i < 20; i++ {
		m.Add(float64(i))
	}
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8", m.N())
	}
	if m.Samples()[0] != 12 || m.Samples()[7] != 19 {
		t.Fatalf("cap kept wrong window: %v", m.Samples())
	}
}

func TestRecent(t *testing.T) {
	m := New(0)
	for i := 0; i < 5; i++ {
		m.Add(float64(i))
	}
	r := m.Recent(3)
	if len(r) != 3 || r[0] != 2 || r[2] != 4 {
		t.Fatalf("Recent(3) = %v", r)
	}
	if len(m.Recent(99)) != 5 {
		t.Fatal("Recent with k>n must return all")
	}
}

// Property: whenever the model fits, the threshold is an observed value,
// p equals the empirical probability of suspicion, and n >= MinN.
func TestFitInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 12
		rng := rand.New(rand.NewSource(seed))
		m := New(0)
		for i := 0; i < n; i++ {
			m.Add(float64(rng.Intn(11)) / 10)
		}
		fit, ok := m.Fit()
		if !ok {
			return true
		}
		if m.N() < fit.MinN {
			return false
		}
		// p must equal the fraction of samples <= threshold.
		count := 0
		for _, s := range m.Samples() {
			if s <= fit.Threshold {
				count++
			}
		}
		p := float64(count) / float64(m.N())
		if math.Abs(p-fit.P) >= 1e-9 {
			return false
		}
		// E is a rung of the ladder, and Q is exactly P+E capped at QMax.
		if !slices.Contains(ToleranceLevels, fit.E) {
			return false
		}
		return fit.Q == math.Min(fit.P+fit.E, QMax)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFit256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(0)
	for i := 0; i < 256; i++ {
		m.Add(float64(rng.Intn(11)) / 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fit()
	}
}
