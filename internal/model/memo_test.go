package model

import (
	"math/rand"
	"testing"
)

// At a full window an Add that swaps one sample above the memo's bound
// for another leaves the stored fit standing; anything at or below the
// bound, or any change of the sample count, drops it. (That the stored
// fit is the right one is the differential test's and the fuzzer's job:
// they compare every Fit with a rebuild.)
func TestFitMemoStandsAboveItsBound(t *testing.T) {
	m := New(64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		m.Add(float64(1+rng.Intn(7)) / 8)
	}
	f, ok := m.Fit()
	if !ok || !m.fitValid {
		t.Fatalf("Fit() = %+v, %v on a full healthy window (memo valid: %v)", f, ok, m.fitValid)
	}
	if m.fitBound < f.Threshold {
		t.Fatalf("memo bound %v lies below the threshold %v it must cover", m.fitBound, f.Threshold)
	}
	// Make the evicted sample a high one too, then add another high one.
	for m.Samples()[0] <= m.fitBound {
		m.Add(1)
		m.Fit()
	}
	m.Add(1)
	if !m.fitValid {
		t.Fatal("replacing a sample above the bound by another one above it dropped the memo")
	}
	if g, gok := m.Fit(); g != f || gok != ok {
		t.Fatalf("memoised Fit() = %+v, %v, want %+v, %v", g, gok, f, ok)
	}
	m.Add(0) // lands at the bottom of the window
	if m.fitValid {
		t.Fatal("a sample below the bound left the memo standing")
	}
	m.Fit()
	m.Halve()
	if m.fitValid {
		t.Fatal("Halve left the memo standing")
	}
	m.Fit()
	m.Restore([]float64{0.5, 0.25})
	if m.fitValid {
		t.Fatal("Restore left the memo standing")
	}
}

// Reset gives back an empty model that behaves like a new one and
// grows nothing: the buffers of the previous history are reused.
func TestResetMatchesNewAndKeepsBuffers(t *testing.T) {
	feed := func(m *Model, seed int64) (fits []Fit) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			m.Add(float64(rng.Intn(9)) / 8)
			if f, ok := m.Fit(); ok {
				fits = append(fits, f)
			}
		}
		return fits
	}
	used := New(128)
	feed(used, 1)
	used.Reset()
	if used.N() != 0 || used.Ready() {
		t.Fatalf("after Reset: N = %d, Ready = %v", used.N(), used.Ready())
	}
	got, want := feed(used, 2), feed(New(128), 2)
	if len(got) != len(want) {
		t.Fatalf("reset model produced %d fits, a new one %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fit %d after Reset = %+v, a new model gives %+v", i, got[i], want[i])
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		used.Reset()
		for i := 0; i < 300; i++ {
			used.Add(float64(i%9) / 8)
		}
	}); avg != 0 {
		t.Fatalf("Reset and refill allocates %v times, want 0", avg)
	}
}
