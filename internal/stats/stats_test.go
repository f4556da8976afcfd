package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The paper's worked example (§3.1): 16 samples with boundary 0.44375,
// N1 = 7, N0 = 9, R = 4, non-rejection region (4, 14) — so R = 4 must
// reject randomness.
func TestRunsTestPaperExample(t *testing.T) {
	samples := []float64{
		0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.0, 0.0,
		0.8, 0.9, 1.0, 0.8, 0.9, 0.1, 0.9, 0.9,
	}
	if got := Mean(samples); math.Abs(got-0.44375) > 1e-12 {
		t.Fatalf("boundary = %v, want 0.44375", got)
	}
	n1, n0, runs := CountRuns(samples, Mean(samples))
	if n1 != 7 || n0 != 9 || runs != 4 {
		t.Fatalf("n1,n0,runs = %d,%d,%d; want 7,9,4", n1, n0, runs)
	}
	res := RunsTest(samples, 0.05)
	if res.Random {
		t.Fatalf("paper example must reject randomness (region [%d,%d])", res.Lo, res.Hi)
	}
	if res.Lo != 5 {
		t.Fatalf("lower bound of region = %d, want 5 (reject at R <= 4)", res.Lo)
	}
}

func TestRunsPMFSumsToOne(t *testing.T) {
	for _, c := range []struct{ n1, n0 int }{{3, 3}, {7, 9}, {10, 10}, {20, 20}, {2, 15}} {
		sum := 0.0
		for r := 2; r <= c.n1+c.n0; r++ {
			p := runsPMF(c.n1, c.n0, r)
			if p < 0 {
				t.Fatalf("negative pmf at n1=%d n0=%d r=%d", c.n1, c.n0, r)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf sum = %v for n1=%d n0=%d, want 1", sum, c.n1, c.n0)
		}
	}
}

func TestRunsTestDegenerateSides(t *testing.T) {
	// All samples on one side of the mean is impossible, but one sample
	// on a side is possible; the paper declares that "not random".
	samples := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10}
	res := RunsTest(samples, 0.05)
	if res.Random {
		t.Fatal("N1 <= 1 must be declared not random")
	}
}

func TestRunsTestAlternatingRejected(t *testing.T) {
	// Perfect alternation has the maximum number of runs: non-random.
	var samples []float64
	for i := 0; i < 20; i++ {
		samples = append(samples, float64(i%2))
	}
	res := RunsTest(samples, 0.05)
	if res.Random {
		t.Fatalf("perfect alternation accepted as random (R=%d region [%d,%d])",
			res.Runs, res.Lo, res.Hi)
	}
}

func TestRunsTestBlockedRejected(t *testing.T) {
	// Two giant blocks: R = 2, non-random.
	var samples []float64
	for i := 0; i < 20; i++ {
		samples = append(samples, float64(i/10))
	}
	res := RunsTest(samples, 0.05)
	if res.Random {
		t.Fatal("two-block sequence accepted as random")
	}
}

func TestRunsTestRandomSequencesMostlyPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pass := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		samples := make([]float64, 32)
		for j := range samples {
			samples[j] = rng.Float64()
		}
		if RunsTest(samples, 0.05).Random {
			pass++
		}
	}
	// Expected pass rate ~95%; allow generous slack.
	if pass < trials*85/100 {
		t.Fatalf("only %d/%d random sequences passed", pass, trials)
	}
}

func TestRunsTestNormalApproxLargeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 200) // n1, n0 > 20 → normal path
	for j := range samples {
		samples[j] = rng.Float64()
	}
	res := RunsTest(samples, 0.05)
	if !res.Random {
		t.Fatalf("large random sequence rejected: R=%d region [%d,%d]", res.Runs, res.Lo, res.Hi)
	}
	// And a pathological large sequence must fail.
	for j := range samples {
		samples[j] = float64(j % 2)
	}
	if RunsTest(samples, 0.05).Random {
		t.Fatal("large alternating sequence accepted")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.999, 3.090232},
		{0.0005, -3.290527},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{0.3, 0.1, 0.2, 0.2})
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct{ x, want float64 }{
		{0.05, 0}, {0.1, 0.25}, {0.15, 0.25}, {0.2, 0.75}, {0.3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.F(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	e := NewECDF([]float64{0.1, 0.2, 0.2, 0.3})
	cases := []struct{ p, want float64 }{
		{0.01, 0.1}, {0.25, 0.1}, {0.26, 0.2}, {0.75, 0.2}, {0.76, 0.3}, {1, 0.3},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Property: Quantile(p) is the smallest observed value t with F(t) >= p.
func TestECDFQuantileProperty(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = math.Abs(math.Mod(v, 1000)) // keep finite
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		p := math.Abs(math.Mod(pRaw, 1))
		if p == 0 {
			p = 0.5
		}
		e := NewECDF(vals)
		q := e.Quantile(p)
		if e.F(q) < p-1e-12 {
			return false
		}
		// No smaller observed value satisfies it.
		sort.Float64s(vals)
		for _, v := range vals {
			if v >= q {
				break
			}
			if e.F(v) >= p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// An ECDF maintained by Insert and Replace holds, after every step, the
// sorted multiset a Reset over the same values would have built.
func TestECDFMaintainedMatchesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var e ECDF
	e.Grow(16)
	grown := &e.Sorted()[:1][0]
	var vals []float64
	check := func(step string) {
		t.Helper()
		want := NewECDF(vals).Sorted()
		got := e.Sorted()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, a Reset gives %v", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %v, a Reset gives %v", step, got, want)
			}
		}
	}
	for len(vals) < 16 {
		v := float64(rng.Intn(5)) // few distinct values: runs of equals
		e.Insert(v)
		vals = append(vals, v)
		check("insert")
	}
	for i := 0; i < 500; i++ {
		k, v := rng.Intn(len(vals)), float64(rng.Intn(7)-1)
		if !e.Replace(vals[k], v) {
			t.Fatalf("Replace(%v, %v) found no %v in %v", vals[k], v, vals[k], e.Sorted())
		}
		vals[k] = v
		check("replace")
	}
	if e.Replace(99, 1) {
		t.Fatal("Replace of an absent value reported success")
	}
	check("replace of an absent value")
	if &e.Sorted()[0] != grown {
		t.Fatal("the buffer moved: Grow(16) should have sized it for 16 values once")
	}
}

func TestECDFValuesAndBelow(t *testing.T) {
	e := NewECDF([]float64{0.2, 0.1, 0.2, 0.5})
	vals := e.Values()
	want := []float64{0.1, 0.2, 0.5}
	if len(vals) != len(want) {
		t.Fatalf("Values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vals, want)
		}
	}
	if v, ok := e.Below(0.2); !ok || v != 0.1 {
		t.Fatalf("Below(0.2) = %v,%v", v, ok)
	}
	if _, ok := e.Below(0.1); ok {
		t.Fatal("Below(min) should not exist")
	}
}

// The paper's Figure 5 anchor points: with e = 0.3, 0.2, 0.1, 0.05 the
// minimizing (pm, nm) are (0.47, 11), (0.27, 19), (0.12, 42), (0.06, 86).
func TestRequiredSampleSizePaperAnchors(t *testing.T) {
	cases := []struct {
		e, p float64
		n    int
	}{
		{0.3, 0.47, 11},
		{0.2, 0.27, 19},
		{0.1, 0.12, 42},
		{0.05, 0.06, 86},
	}
	for _, c := range cases {
		got := RequiredSampleSize(c.p, c.e)
		// The paper reports 86 for (0.06, 0.05); the exact bound is
		// 86.67, which ceils to 87 — allow off-by-one against the
		// paper's rounding.
		if got < c.n || got > c.n+1 {
			t.Errorf("RequiredSampleSize(%v, %v) = %d, want %d (±1)", c.p, c.e, got, c.n)
		}
	}
}

// Property: the sample-size bound is the max of its terms and
// decreasing in e.
func TestRequiredSampleSizeProperty(t *testing.T) {
	f := func(pRaw, eRaw float64) bool {
		p := 0.01 + math.Abs(math.Mod(pRaw, 0.49))
		e := 0.01 + math.Abs(math.Mod(eRaw, 0.3))
		n := RequiredSampleSize(p, e)
		if float64(n) < 5/p-1 || float64(n) < Z95Sq*p*(1-p)/(e*e)-1 {
			return false
		}
		return RequiredSampleSize(p, e/2) >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricThreshold(t *testing.T) {
	// Paper: q <= 0.77 ⇒ log_0.77(0.001) = 26.5 ⇒ at most 27 suspicions.
	if got := GeometricThreshold(0.77, 0.001); got != 27 {
		t.Fatalf("GeometricThreshold(0.77, 0.001) = %d, want 27", got)
	}
	if got := GeometricThreshold(0.5, 0.001); got != 10 {
		t.Fatalf("GeometricThreshold(0.5, 0.001) = %d, want 10", got)
	}
	// Threshold must guarantee the tail bound.
	for _, q := range []float64{0.1, 0.3, 0.5, 0.77, 0.9} {
		k := GeometricThreshold(q, 0.001)
		if GeometricTail(q, k) > 0.001+1e-12 {
			t.Errorf("q=%v: tail(k=%d) = %v > alpha", q, k, GeometricTail(q, k))
		}
		if k > 1 && GeometricTail(q, k-1) <= 0.001 {
			t.Errorf("q=%v: k=%d not minimal", q, k)
		}
	}
}

func TestWaldInterval(t *testing.T) {
	lo, hi := WaldInterval(0.5, 100)
	if math.Abs(lo-0.402) > 0.001 || math.Abs(hi-0.598) > 0.001 {
		t.Fatalf("WaldInterval(0.5,100) = [%v, %v]", lo, hi)
	}
	lo, hi = WaldInterval(0.01, 10)
	if lo < 0 || hi > 1 {
		t.Fatal("interval must clamp to [0,1]")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-2.138089935) > 1e-6 {
		t.Fatalf("std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.5, 1.5, 1.6, 2.5, 99}, 0, 1, 3)
	if h[0] != 1 || h[1] != 2 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func BenchmarkRunsTest16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 16)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunsTest(samples, 0.05)
	}
}

func BenchmarkECDFQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 512)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	e := NewECDF(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Quantile(0.12)
	}
}
