package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestExactRunsRegionAt16 checks RunsTest's exact region at the
// monitor's batch of 16 samples against a distribution counted by
// enumerating every arrangement of n1 positives among 16 places, with
// no use of runsPMF. Alpha is 1/den, so "P > alpha/2" is the integer
// comparison 2·den·count > C(16, n1). It also pins which splits tell
// the default runs-test alpha 0.05 from 0.04: only (5, 11) and (11, 5).
func TestExactRunsRegionAt16(t *testing.T) {
	const n = 16
	var count [n + 1][n + 2]int // count[n1][runs] over all arrangements
	for mask := 0; mask < 1<<n; mask++ {
		runs := 1
		for i := 1; i < n; i++ {
			if (mask>>i)&1 != (mask>>(i-1))&1 {
				runs++
			}
		}
		n1 := 0
		for m := mask; m != 0; m &= m - 1 {
			n1++
		}
		count[n1][runs]++
	}
	region := func(n1, den int) (lo, hi int) {
		total := 0
		for _, c := range count[n1] {
			total += c
		}
		for cum, r := 0, 2; r <= n; r++ {
			if cum += count[n1][r]; 2*den*cum > total {
				lo = r
				break
			}
		}
		for cum, r := 0, n; r >= 2; r-- {
			if cum += count[n1][r]; 2*den*cum > total {
				hi = r
				break
			}
		}
		return lo, hi
	}
	var differ []int
	for n1 := 2; n1 <= n-2; n1++ {
		samples := make([]float64, n)
		for i := 0; i < n1; i++ {
			samples[i] = 1
		}
		for _, den := range []int{20, 25} { // alpha 0.05 and 0.04
			lo, hi := region(n1, den)
			res := RunsTest(samples, 1/float64(den))
			if res.N1 != n1 || res.Lo != lo || res.Hi != hi {
				t.Errorf("n1=%d alpha=1/%d: RunsTest N1=%d region [%d, %d], enumeration [%d, %d]",
					n1, den, res.N1, res.Lo, res.Hi, lo, hi)
			}
		}
		lo5, hi5 := region(n1, 20)
		lo4, hi4 := region(n1, 25)
		if lo5 != lo4 || hi5 != hi4 {
			differ = append(differ, n1)
		}
	}
	if !slices.Equal(differ, []int{5, 11}) {
		t.Errorf("splits whose region differs between alpha 0.05 and 0.04: n1 in %v, want [5 11]", differ)
	}
	if lo, hi := region(5, 20); lo != 5 || hi != 11 {
		t.Errorf("(5, 11) at alpha 0.05: region [%d, %d], want [5, 11]", lo, hi)
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

// sameECDF reports whether two ECDFs hold the same representation:
// the same distinct values with the same cumulative counts.
func sameECDF(a, b *ECDF) bool {
	return slices.Equal(a.vals, b.vals) && slices.Equal(a.cum, b.cum)
}

// replaceCase names the structural case a Replace(old, v) takes on the
// multiset ref: its direction, whether old's last copy leaves, whether
// v is new, and for a rotation (both) whether every value in between
// holds one sample, the case that moves values and no counts.
func replaceCase(ref []float64, old, v float64) string {
	count := func(x float64) (c int) {
		for _, r := range ref {
			if r == x {
				c++
			}
		}
		return c
	}
	if v == old {
		return "same value"
	}
	dir := "up"
	lo, hi := old, v
	if v < old {
		dir, lo, hi = "down", v, old
	}
	last, isNew := count(old) == 1, count(v) == 0
	switch {
	case last && isNew:
		for _, r := range ref {
			if r > lo && r < hi && count(r) > 1 {
				return dir + "/rotation"
			}
		}
		return dir + "/rotation of singles"
	case last:
		return dir + "/last copy leaves"
	case isNew:
		return dir + "/new value"
	}
	return dir + "/counts only"
}

// An ECDF maintained by Insert and Replace holds, after every step, the
// representation a Reset over the same values would have built, on
// inputs with few levels, many levels and no repeats at all. Together
// the shapes must drive every structural case of Replace in both
// directions. Once the peak number of distinct values has been reached,
// maintaining the window allocates nothing.
func TestECDFMaintainedMatchesReset(t *testing.T) {
	shapes := []struct {
		name string
		n    int
		gen  func(*rand.Rand) float64
	}{
		{"5 levels", 16, func(r *rand.Rand) float64 { return float64(r.Intn(5)) }},
		{"1500 levels", 1024, func(r *rand.Rand) float64 { return float64(r.Intn(1500)) / 1500 }},
		{"all distinct", 256, func(r *rand.Rand) float64 { return r.Float64() }},
	}
	seen := map[string]int{}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(6))
		// Values come from a ring of 3n. The first pass replaces random
		// slots; later passes overwrite the slots in turn, which makes
		// the window the last n values of a sequence with period 3n, so
		// the alloc check below meets no new peak of distinct values.
		ring := make([]float64, 3*sh.n)
		for i := range ring {
			ring[i] = sh.gen(rng)
		}
		var e ECDF
		check := func(step string, window []float64) {
			t.Helper()
			if want := NewECDF(window); !sameECDF(&e, want) {
				t.Fatalf("%s, %s: %v %v, a Reset gives %v %v", sh.name, step, e.vals, e.cum, want.vals, want.cum)
			}
		}
		for i := 0; i < sh.n; i++ {
			e.Insert(ring[i])
			check("insert", ring[:i+1])
		}
		window := slices.Clone(ring[:sh.n])
		next := sh.n
		replace := func(slot int) {
			t.Helper()
			old, v := window[slot], ring[next%len(ring)]
			next++
			if !e.Replace(old, v) {
				t.Fatalf("%s: Replace(%v, %v) found no %v", sh.name, old, v, old)
			}
			window[slot] = v
		}
		for k := 0; k < 3*len(ring); k++ {
			slot := k % sh.n
			if k < len(ring) {
				slot = rng.Intn(sh.n)
			}
			seen[replaceCase(window, window[slot], ring[next%len(ring)])]++
			replace(slot)
			check("replace", window)
		}
		if e.Replace(99, 1) {
			t.Fatalf("%s: Replace of an absent value reported success", sh.name)
		}
		check("replace of an absent value", window)
		k := 3 * len(ring)
		if avg := testing.AllocsPerRun(len(ring), func() {
			replace(k % sh.n)
			k++
		}); avg != 0 {
			t.Errorf("%s: Replace allocates %v times after warm-up, want 0", sh.name, avg)
		}
		check("the alloc check's replacements", window)
	}
	for _, dir := range []string{"up", "down"} {
		for _, c := range []string{"counts only", "new value", "last copy leaves", "rotation", "rotation of singles"} {
			if seen[dir+"/"+c] == 0 {
				t.Errorf("no Replace took case %s/%s (cases drawn: %v)", dir, c, seen)
			}
		}
	}
}

// fuzzValue decodes one byte into a sample: mostly a level out of 13
// (long runs of equal values), otherwise one of a wide spread of
// magnitudes of either sign, including -0.
func fuzzValue(b byte) float64 {
	if b < 200 {
		return float64(b%13) / 12
	}
	return math.Ldexp(float64(int(b)-228), int(b)%7*9-27)
}

// checkECDF compares every query of e against the sorted multiset ref.
func checkECDF(e *ECDF, ref []float64) error {
	if e.N() != len(ref) {
		return fmt.Errorf("N = %d, want %d", e.N(), len(ref))
	}
	var distinct []float64
	for i, v := range ref {
		if i == 0 || v != ref[i-1] {
			distinct = append(distinct, v)
		}
	}
	if got := e.Values(); !slices.Equal(got, distinct) {
		return fmt.Errorf("Values = %v, want %v", got, distinct)
	}
	probes := []float64{math.Inf(-1), math.Inf(1)}
	for _, v := range distinct {
		probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	for _, x := range probes {
		le := sort.Search(len(ref), func(i int) bool { return ref[i] > x })
		want := 0.0
		if len(ref) > 0 {
			want = float64(le) / float64(len(ref))
		}
		if got := e.F(x); got != want {
			return fmt.Errorf("F(%v) = %v, want %v", x, got, want)
		}
		lt := sort.Search(len(ref), func(i int) bool { return ref[i] >= x })
		got, ok := e.Below(x)
		if ok != (lt > 0) || ok && got != ref[lt-1] {
			return fmt.Errorf("Below(%v) = %v, %v; %d values lie below it", x, got, ok, lt)
		}
	}
	if len(ref) == 0 {
		return nil
	}
	for _, p := range []float64{-1, 0, 1e-9, 0.06, 0.12, 0.27, 0.47, 0.5, 0.75, 0.999, 1, 2} {
		k := int(math.Ceil(p * float64(len(ref))))
		k = min(max(k, 1), len(ref))
		if got := e.Quantile(p); got != ref[k-1] {
			return fmt.Errorf("Quantile(%v) = %v, want %v", p, got, ref[k-1])
		}
	}
	return nil
}

// FuzzECDF runs sequences of Insert, Replace and Reset against a plain
// sorted slice and compares every query after every op. Each op reads
// two bytes: the op and its operand.
func FuzzECDF(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 1, 0, 2, 5, 3, 7})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 0, 0, 3, 26, 3}) // both rotations past a repeated value
	f.Add([]byte{0, 0, 0, 13, 0, 26, 1, 0, 1, 1, 2, 4, 1, 2, 3, 9})
	f.Add([]byte{0, 210, 0, 240, 0, 255, 0, 228, 1, 1, 1, 2, 2, 250, 3, 99})
	f.Add([]byte("insert, replace and reset, in no particular order, again and again"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var e ECDF
		var ref []float64 // sorted
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0, 1: // Insert
				v := fuzzValue(arg)
				e.Insert(v)
				ref = append(ref, v)
				slices.Sort(ref)
			case 2: // Replace one stored value (or, if empty, an absent one)
				v := fuzzValue(op)
				if len(ref) == 0 {
					if e.Replace(v, v) {
						t.Fatalf("op %d: Replace on an empty ECDF reported success", i/2)
					}
					break
				}
				k := int(arg) % len(ref)
				if !e.Replace(ref[k], v) {
					t.Fatalf("op %d: Replace(%v, %v) found no %v", i/2, ref[k], v, ref[k])
				}
				ref[k] = v
				slices.Sort(ref)
			case 3: // Reset from the next arg%16 values, or refuse an absent value
				if arg%32 >= 16 {
					if e.Replace(2, 0) { // 2 is never a sample
						t.Fatalf("op %d: Replace of an absent value reported success", i/2)
					}
					break
				}
				vals := make([]float64, 0, 16)
				for k := 0; k < int(arg%16) && i+2+k < len(ops); k++ {
					vals = append(vals, fuzzValue(ops[i+2+k]))
				}
				e.Reset(vals)
				ref = slices.Clone(vals)
				slices.Sort(ref)
			}
			if err := checkECDF(&e, ref); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
		}
	})
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

// Above p = 0.5 the n(1-p) > 5 term is the one that binds, unless the
// tolerance term is larger: (0.7, 0.3) needs ceil(5/0.3) = 17 samples,
// where 5/p alone gives 8 and the tolerance term 9. The model accepts
// candidate probabilities up to 0.75, so this half of the range is live.
func TestRequiredSampleSizeAboveHalf(t *testing.T) {
	cases := []struct {
		p, e float64
		n    int
	}{
		{0.7, 0.3, 17},  // ceil(16.67): the 5/(1-p) term
		{0.6, 0.3, 13},  // ceil(12.5): the 5/(1-p) term
		{0.74, 0.2, 20}, // ceil(19.23): the 5/(1-p) term
		{0.7, 0.1, 81},  // ceil(80.67): the tolerance term
	}
	for _, c := range cases {
		if got := RequiredSampleSize(c.p, c.e); got != c.n {
			t.Errorf("RequiredSampleSize(%v, %v) = %d, want %d", c.p, c.e, got, c.n)
		}
	}
}

// Property: the sample-size bound is the max of its terms and
// decreasing in e, over every p the model may accept as a candidate
// (up to its pMaxCandidate of 0.75).
func TestRequiredSampleSizeProperty(t *testing.T) {
	f := func(pRaw, eRaw float64) bool {
		p := 0.01 + math.Abs(math.Mod(pRaw, 0.74))
		e := 0.01 + math.Abs(math.Mod(eRaw, 0.3))
		n := RequiredSampleSize(p, e)
		if float64(n) < 5/p-1 || float64(n) < 5/(1-p)-1 || float64(n) < Z95Sq*p*(1-p)/(e*e)-1 {
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
