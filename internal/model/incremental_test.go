package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"parastack/internal/stats"
)

// refFit is Fit as it was before the sorted window became a maintained
// invariant: rebuild an ECDF from the arrival-order samples (copy +
// sort), search for each level's optimum afresh, walk the ladder. The
// maintained window and the init-time optima must reproduce it bit for
// bit.
func refFit(m *Model) (Fit, bool) {
	n := m.N()
	if n == 0 {
		return Fit{}, false
	}
	ecdf := stats.NewECDF(m.Samples())
	for i := len(ToleranceLevels) - 1; i >= 0; i-- {
		e := ToleranceLevels[i]
		f, ok := fitAtLevel(ecdf, e, optimalP(e))
		if ok && n >= f.MinN {
			return f, true
		}
	}
	return Fit{}, false
}

// shadow is the arrival-order history as the simplest code keeps it.
type shadow struct {
	samples []float64
	maxN    int
}

func (s *shadow) add(v float64) {
	if v == 0 {
		v = 0 // the model folds -0 into +0
	}
	s.samples = append(s.samples, v)
	if len(s.samples) > s.maxN {
		s.samples = s.samples[1:]
	}
}

func (s *shadow) halve() {
	var out []float64
	for i := 1; i < len(s.samples); i += 2 {
		out = append(out, s.samples[i])
	}
	s.samples = out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstReference asserts the model's three invariants: the
// arrival-order view equals the shadow history, the window is that
// history sorted, and Fit equals the rebuild on every field.
func checkAgainstReference(m *Model, sh *shadow) error {
	if !sameBits(m.Samples(), sh.samples) {
		return fmt.Errorf("Samples() = %v, want %v", m.Samples(), sh.samples)
	}
	if k := len(sh.samples) / 2; !sameBits(m.Recent(k), sh.samples[len(sh.samples)-k:]) {
		return fmt.Errorf("Recent(%d) = %v, want the tail of %v", k, m.Recent(k), sh.samples)
	}
	want := append([]float64(nil), sh.samples...)
	sort.Float64s(want)
	if !sameBits(m.window.Sorted(), want) {
		return fmt.Errorf("window = %v, want sort(Samples()) = %v", m.window.Sorted(), want)
	}
	got, gotOK := m.Fit()
	ref, refOK := refFit(m)
	if gotOK != refOK ||
		math.Float64bits(got.Threshold) != math.Float64bits(ref.Threshold) ||
		math.Float64bits(got.P) != math.Float64bits(ref.P) ||
		math.Float64bits(got.E) != math.Float64bits(ref.E) ||
		math.Float64bits(got.Q) != math.Float64bits(ref.Q) ||
		got.MinN != ref.MinN {
		return fmt.Errorf("Fit() = %+v, %v; rebuild gives %+v, %v (samples %v)", got, gotOK, ref, refOK, sh.samples)
	}
	return nil
}

// driveOps decodes one op per byte — mostly Adds from a small alphabet
// (heavy duplicates, both zeros), a few wide values, the odd Halve —
// and checks the invariants after every one.
func driveOps(maxHistory int, ops []byte) error {
	m := New(maxHistory)
	sh := &shadow{maxN: maxHistory}
	for i, b := range ops {
		switch {
		case b >= 252:
			m.Halve()
			sh.halve()
		case b >= 240:
			v := math.Ldexp(float64(int(b)-245), int(b)%5*20) // both signs, units to 2^80, and 0
			m.Add(v)
			sh.add(v)
		case b == 239:
			v := math.Copysign(0, -1)
			m.Add(v)
			sh.add(v)
		default:
			v := float64(b%9) / 8
			m.Add(v)
			sh.add(v)
		}
		if err := checkAgainstReference(m, sh); err != nil {
			return fmt.Errorf("maxHistory %d, op %d (byte %d): %w", maxHistory, i, b, err)
		}
	}
	return nil
}

var incrementalSizes = []int{1, 2, 7, 1024}

// Random Add/Halve sequences, long enough to wrap every history size
// several times, agree with the rebuild after every op.
func TestIncrementalMatchesRebuild(t *testing.T) {
	for _, maxHistory := range incrementalSizes {
		rng := rand.New(rand.NewSource(int64(maxHistory)))
		ops := make([]byte, 5*maxHistory+200)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if ops[i] >= 252 && rng.Intn(8) != 0 {
				ops[i] = byte(rng.Intn(239)) // keep Halves rare enough for the window to fill
			}
		}
		if err := driveOps(maxHistory, ops); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzModelIncremental(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 239, 0, 252, 1})
	f.Add(uint8(1), []byte{8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 240, 251})
	f.Add(uint8(2), []byte("the quick brown fox jumps over the lazy dog, twice over and back"))
	long := make([]byte, 3*1024+100)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(uint8(3), long)
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		if err := driveOps(incrementalSizes[int(size)%len(incrementalSizes)], ops); err != nil {
			t.Fatal(err)
		}
	})
}

// Restore is the snapshot path: whatever it is handed, the result is
// the model that Adding the same samples in order would have built.
func TestRestoreMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 6, 7, 8, 40} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(rng.Intn(5)) / 4
		}
		if n > 2 {
			samples[n/2] = math.Copysign(0, -1)
		}
		m := New(7)
		m.Add(0.5) // Restore replaces, it does not append
		m.Restore(samples)
		sh := &shadow{maxN: 7}
		for _, v := range samples {
			sh.add(v)
		}
		if err := checkAgainstReference(m, sh); err != nil {
			t.Fatalf("restore of %d samples: %v", n, err)
		}
		for i := 0; i < 20; i++ { // and carries on from there
			v := float64(rng.Intn(5)) / 4
			m.Add(v)
			sh.add(v)
			if err := checkAgainstReference(m, sh); err != nil {
				t.Fatalf("add %d after restoring %d samples: %v", i, n, err)
			}
		}
	}
}

func TestAddRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic: NaN would break the window's order")
		}
	}()
	New(4).Add(math.NaN())
}

// The refit-per-sample hot path must not allocate: the arrival-order
// buffer is sized once, the window stops growing once the number of
// distinct values has peaked, and Fit reads the maintained window.
// With no repeats that peak is the full window, reached when the
// window has cycled once.
func TestAddFitZeroAllocs(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(n int) float64
	}{
		{"7 levels", func(n int) float64 { return float64(1+n%7) / 8 }},
		{"all distinct", func(n int) float64 { return float64(n%4099) / 4099 }},
	}
	for _, sh := range shapes {
		m := New(1024)
		n := 0
		addFit := func() {
			m.Add(sh.gen(n))
			m.Fit()
			n++
		}
		for n < 3*1024 {
			addFit()
		}
		if avg := testing.AllocsPerRun(2000, addFit); avg != 0 {
			t.Fatalf("%s: Add+Fit allocates %v times per sample at a full window, want 0", sh.name, avg)
		}
	}
}

// addFitShapes are BenchmarkAddFit's inputs. Scrout from C sampled
// processes takes C+1 levels: 7, 11 and 33 are the benchmark feed's,
// the paper's C = 10 and a wider sample; 1500 levels (C ≳ 1000) and
// continuous values are the regimes where distinct values are many.
var addFitShapes = []struct {
	name string
	gen  func(*rand.Rand) float64
}{
	{"levels=7", func(r *rand.Rand) float64 { return float64(r.Intn(7)) / 6 }},
	{"levels=11", func(r *rand.Rand) float64 { return float64(r.Intn(11)) / 10 }},
	{"levels=33", func(r *rand.Rand) float64 { return float64(r.Intn(33)) / 32 }},
	{"levels=1500", func(r *rand.Rand) float64 { return float64(r.Intn(1500)) / 1499 }},
	{"distinct", func(r *rand.Rand) float64 { return r.Float64() }},
}

// BenchmarkAddFit shows how the per-sample cost depends on the input's
// shape and the window size. At capacity Add makes two searches over
// the distinct values and then touches only the entries between
// the evicted value and the new one: a few counts when values repeat,
// whatever the window size, and one memmove of the values in between
// when none repeat. 64 is not the cheapest window: below 87 samples the
// finest tolerance level is not justified and Fit walks further down
// the ladder.
func BenchmarkAddFit(b *testing.B) {
	for _, sh := range addFitShapes {
		for _, size := range []int{64, 1024, 8192} {
			b.Run(fmt.Sprintf("%s/%d", sh.name, size), func(b *testing.B) {
				// The input is drawn ahead of time, so that the loop
				// times Add and Fit and not the generator.
				rng := rand.New(rand.NewSource(1))
				in := make([]float64, 1<<16)
				for i := range in {
					in[i] = sh.gen(rng)
				}
				m := New(size)
				for i := 0; i < 2*size; i++ {
					m.Add(in[i%len(in)])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Add(in[i%len(in)])
					m.Fit()
				}
			})
		}
	}
}
