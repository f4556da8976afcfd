package core

// Property tests of the detection kernel against the paper's §3: the
// suspicion streak and its verdict at k = ceil(log_q alpha), the runs
// test's cadence and its one-way switch, and the streak resets that
// leave interval adaptation alone.

import (
	"math/rand"
	"testing"
	"time"

	"parastack/internal/model"
	"parastack/internal/stats"
)

// kernelDriver feeds a kernel the way core.Monitor does: Add, halve
// the model when Add asks for a doubling, then Decide.
type kernelDriver struct {
	k       Kernel
	md      *model.Model
	doubles int
}

func newKernelDriver(cfg Config, maxHistory int) *kernelDriver {
	return &kernelDriver{k: NewKernel(cfg), md: model.New(maxHistory)}
}

func (kd *kernelDriver) step(x float64) (bool, Decision) {
	double := kd.k.Add(kd.md, x)
	if double {
		kd.doubles++
		kd.md.Halve()
	}
	return double, kd.k.Decide(kd.md, x)
}

// healthy draws a Scrout value of a ten-process set, uniformly.
func healthy(rng *rand.Rand) float64 { return float64(rng.Intn(11)) / 10 }

// mixedStream is healthy draws broken by runs of zeros (hang-like
// stretches) of random length, so streaks build, verify and reset.
func mixedStream(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		for i := rng.Intn(60); i > 0; i-- {
			out = append(out, healthy(rng))
		}
		for i := rng.Intn(40); i > 0; i-- {
			out = append(out, 0)
		}
	}
	return out[:n]
}

// The streak counts consecutive suspicions and nothing else: a
// non-suspicion resets it to 0, a suspicion adds one, and the verdict
// holds exactly when the streak has reached k — so it comes at the k-th
// consecutive suspicion, with k as of that suspicion's fit.
func TestKernelStreakFollowsSuspicions(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kd := newKernelDriver(Config{DisableAdaptation: seed%2 == 0}, 256)
		streak, fits, verdicts := 0, 0, 0
		for i, x := range mixedStream(rng, 4000) {
			_, d := kd.step(x)
			if d == Learning {
				continue
			}
			if kd.k.FirstFit() != (fits == 0) {
				t.Fatalf("seed %d sample %d: FirstFit=%v after %d fits", seed, i, kd.k.FirstFit(), fits)
			}
			fits++
			if thr := kd.k.Fit().Threshold; (d != Clear) != (x <= thr) {
				t.Fatalf("seed %d sample %d: decision %d for %v against threshold %v", seed, i, d, x, thr)
			}
			if d == Clear {
				if streak = 0; kd.k.Streak() != 0 {
					t.Fatalf("seed %d sample %d: non-suspicion left streak %d", seed, i, kd.k.Streak())
				}
				continue
			}
			streak++
			if kd.k.Streak() != streak || kd.k.K() < 1 {
				t.Fatalf("seed %d sample %d: streak %d k %d, want streak %d", seed, i, kd.k.Streak(), kd.k.K(), streak)
			}
			if (d == Verify) != (streak >= kd.k.K()) {
				t.Fatalf("seed %d sample %d: decision %d at streak %d, k %d", seed, i, d, streak, kd.k.K())
			}
			if d == Verify && streak == kd.k.K() {
				verdicts++
			}
		}
		if fits == 0 || verdicts < 3 {
			t.Fatalf("seed %d: %d fits, %d verdicts: the stream did not exercise the kernel", seed, fits, verdicts)
		}
	}
}

// k is computed once per fit and cached against its Q, so it must equal
// a fresh GeometricThreshold on every suspicion, including the first
// one after a refit moved Q.
func TestKernelKMatchesGeometricThreshold(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(3))
	kd := newKernelDriver(Config{Alpha: alpha, DisableAdaptation: true}, 64)
	suspicions, moved := 0, 0
	prevQ := 0.0
	for i, x := range mixedStream(rng, 5000) {
		if _, d := kd.step(x); d != Suspect && d != Verify {
			continue
		}
		suspicions++
		q := kd.k.Fit().Q
		if want := stats.GeometricThreshold(q, alpha); kd.k.K() != want {
			t.Fatalf("sample %d: k = %d at q %v, want %d", i, kd.k.K(), q, want)
		}
		if prevQ != 0 && q != prevQ {
			moved++
		}
		prevQ = q
	}
	if suspicions < 100 || moved < 5 {
		t.Fatalf("%d suspicions, %d after a refit moved q: the stream did not exercise the cache", suspicions, moved)
	}
}

// The runs test runs every RunsBatch samples, counted from the start,
// and only until it first passes or the doubling budget is spent: a
// doubling is asked for exactly when a test is due, the interval is
// still under maxInterval after another doubling, and RunsTest rejects
// the latest batch. After the first pass no sample, however correlated,
// doubles the interval, and at the default I0 no run doubles it more
// than three times.
func TestKernelRunsTestCadence(t *testing.T) {
	const batch = 16
	budget := doublingBudget(400 * time.Millisecond)
	if budget != 3 {
		t.Fatalf("doubling budget at 400ms = %d, want 3 (3.2s ceiling)", budget)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kd := newKernelDriver(Config{}, 1024)
		passedAt, doubles := -1, 0
		for n := 1; n <= 2000; n++ {
			// An alternating start and constant stretches fail any
			// runs test; stretches of independent draws can pass.
			var x float64
			switch phase := (n / 40) % 3; {
			case passedAt < 0 && n < 40*int(seed):
				x = float64(n % 2)
			case phase == 0:
				x = healthy(rng)
			default:
				x = 0.5
			}
			wasRandom := kd.k.randomOK
			double := kd.k.Add(kd.md, x)
			due := !wasRandom && doubles < budget && n%batch == 0
			want := due && !stats.RunsTest(kd.md.Recent(batch), 0.05).Random
			if double != want {
				t.Fatalf("seed %d sample %d: double=%v, want %v (test due %v)", seed, n, double, want, due)
			}
			if kd.k.randomOK != wasRandom && !due {
				t.Fatalf("seed %d sample %d: runs test passed between batches", seed, n)
			}
			if kd.k.randomOK && passedAt < 0 {
				passedAt = n
			}
			if double {
				doubles++
				kd.md.Halve()
			}
			kd.k.Decide(kd.md, x)
		}
		if passedAt >= 0 && passedAt < 40*int(seed) {
			t.Fatalf("seed %d: runs test passed at sample %d", seed, passedAt)
		}
		// From seed 2 on the alternating start alone spans at least four
		// due batches, every one rejected: the budget is spent on it.
		if seed >= 2 && doubles != budget {
			t.Fatalf("seed %d: %d doublings, want the whole budget of %d", seed, doubles, budget)
		}
	}
}

// doublingBudget counts the doublings that keep I at or under the
// 3.2 s ceiling, whatever I0 is.
func TestDoublingBudget(t *testing.T) {
	for _, c := range []struct {
		i0   time.Duration
		want int
	}{
		{10 * time.Millisecond, 8}, // 2.56 s
		{400 * time.Millisecond, 3},
		{800 * time.Millisecond, 2},
		{1600 * time.Millisecond, 1},
		{3200 * time.Millisecond, 0},
		{5 * time.Second, 0},
	} {
		if got := doublingBudget(c.i0); got != c.want {
			t.Errorf("doublingBudget(%v) = %d, want %d", c.i0, got, c.want)
		}
	}
}

// After the runs test has passed once, nothing doubles the interval
// again: not a constant stretch, not a perfectly alternating one.
func TestKernelNoDoublingAfterRunsTestPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kd := newKernelDriver(Config{}, 1024)
	for i := 0; !kd.k.randomOK; i++ {
		if i > 10000 {
			t.Fatal("runs test never passed on independent draws")
		}
		kd.step(healthy(rng))
	}
	before := kd.doubles
	for i := 0; i < 500; i++ {
		x := 0.3
		if i >= 250 {
			x = float64(i % 2)
		}
		if double, _ := kd.step(x); double {
			t.Fatalf("sample %d after the runs test passed asked for a doubling", i)
		}
	}
	if kd.doubles != before {
		t.Fatalf("doublings %d → %d after the runs test passed", before, kd.doubles)
	}
}

// With adaptation off the kernel never runs the test, never doubles,
// and never marks the sampling random.
func TestKernelAdaptationOffNeverDoubles(t *testing.T) {
	kd := newKernelDriver(Config{DisableAdaptation: true}, 1024)
	for i := 0; i < 50*16; i++ {
		if double, _ := kd.step(float64(i % 2)); double {
			t.Fatalf("sample %d: adaptation off asked for a doubling", i)
		}
	}
	if kd.k.randomOK || kd.k.sinceRuns != 0 {
		t.Fatalf("adaptation off touched runs-test state: randomOK=%v sinceRuns=%d", kd.k.randomOK, kd.k.sinceRuns)
	}
}

// Veto (the transient filter's) and NewPhase (NotifyPhase's) zero the
// streak and leave the adaptation state and the k cache as they were,
// before and after the runs test has passed.
func TestKernelVetoAndNewPhaseKeepAdaptation(t *testing.T) {
	for _, reset := range []struct {
		name string
		do   func(*Kernel)
	}{{"Veto", (*Kernel).Veto}, {"NewPhase", (*Kernel).NewPhase}} {
		for _, randomOK := range []bool{false, true} {
			rng := rand.New(rand.NewSource(5))
			kd := newKernelDriver(Config{DisableAdaptation: true}, 1024)
			for !kd.md.Ready() {
				kd.step(healthy(rng))
			}
			kd.k.adapt, kd.k.randomOK, kd.k.sinceRuns = true, randomOK, 7
			for i := 0; i < 3; i++ {
				kd.step(0)
			}
			before := kd.k
			if before.streak != 3 {
				t.Fatalf("%s: three zeros built a streak of %d", reset.name, before.streak)
			}
			reset.do(&kd.k)
			want := before
			want.streak = 0
			if kd.k != want {
				t.Fatalf("%s (randomOK %v): kernel %+v, want %+v", reset.name, randomOK, kd.k, want)
			}
			if kd.step(0); kd.k.Streak() != 1 {
				t.Fatalf("%s: the next suspicion has streak %d, want 1", reset.name, kd.k.Streak())
			}
		}
	}
}

// At the default RunsAlpha of 0.05 the exact region at n1 = 5, n0 = 11
// is [5, 11] (at 0.04 it would be [4, 11]; see the stats package's
// TestExactRunsRegionAt16), so a first batch with four runs doubles
// the interval and one with five does not.
func TestKernelDefaultRunsAlphaAtBatch16(t *testing.T) {
	for _, c := range []struct {
		batch  []float64
		double bool
	}{
		{[]float64{1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0}, true}, // 4 runs
		{[]float64{1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1}, false},
	} {
		k, md := NewKernel(Config{}), model.New(0)
		var double bool
		for _, x := range c.batch {
			double = k.Add(md, x)
		}
		if n1, n0, runs := stats.CountRuns(c.batch, stats.Mean(c.batch)); n1 != 5 || n0 != 11 || runs < 4 || runs > 5 {
			t.Fatalf("batch has n1=%d n0=%d runs=%d", n1, n0, runs)
		}
		if double != c.double {
			t.Errorf("batch %v: double=%v, want %v", c.batch, double, c.double)
		}
	}
}

// A snapshot carries the kernel's adaptation verdict and first-fit
// mark across a failover but not its streak: a restored monitor must
// earn significance again before it can verify.
func TestSnapshotKeepsRandomOKDropsStreak(t *testing.T) {
	for _, randomOK := range []bool{false, true} {
		m, w := parkedMonitor(32, 4, Config{})
		m.kernel.randomOK, m.kernel.fitted, m.kernel.streak = randomOK, true, 5
		r := RestoreMonitor(w, m.cluster, Config{}, m.Snapshot())
		if r.kernel.randomOK != randomOK || !r.kernel.fitted || r.kernel.streak != 0 {
			t.Fatalf("restored kernel randomOK=%v fitted=%v streak=%d, want %v, true, 0",
				r.kernel.randomOK, r.kernel.fitted, r.kernel.streak, randomOK)
		}
	}
}
