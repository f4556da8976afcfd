package paper

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// These tests run each generator at minimum scale and assert the
// qualitative shapes the paper reports. Full-scale regeneration lives
// in cmd/pssweep -grid paper.

func TestTable3Shape(t *testing.T) {
	var buf bytes.Buffer
	rows := Table3(&buf, Options{Seed: 3})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r10, r100 := rows[0], rows[1]
	// Clean run ≈ 185s.
	if r10.CleanSecs < 160 || r10.CleanSecs > 215 {
		t.Fatalf("clean = %.1fs, want ≈185s", r10.CleanSecs)
	}
	// Trace counts ≈ duration/interval.
	if r10.N < 15000 || r10.N > 25000 {
		t.Fatalf("n@10ms = %d, paper reports 18220", r10.N)
	}
	if r100.N < 1500 || r100.N > 2500 {
		t.Fatalf("n@100ms = %d, paper reports 1870", r100.N)
	}
	// Overhead at 10ms is heavy, at 100ms light — and roughly 3ms per
	// trace on a compute-bound single process.
	if r10.Ot < 30 || r10.Ot > 80 {
		t.Fatalf("Ot@10ms = %.2fs, paper reports 50.88s", r10.Ot)
	}
	if r100.Ot < 3 || r100.Ot > 12 {
		t.Fatalf("Ot@100ms = %.2fs, paper reports 7.52s", r100.Ot)
	}
	if r10.Ot < 4*r100.Ot {
		t.Fatalf("10ms tracing (%.1fs) should cost several times 100ms tracing (%.1fs)", r10.Ot, r100.Ot)
	}
}

func TestFigure5Anchors(t *testing.T) {
	anchors := Figure5(io.Discard, Options{})
	want := map[float64][2]float64{
		0.3:  {0.47, 11},
		0.2:  {0.27, 19},
		0.1:  {0.12, 42},
		0.05: {0.06, 87},
	}
	for e, exp := range want {
		got, ok := anchors[e]
		if !ok {
			t.Fatalf("missing anchor for e=%v", e)
		}
		if got[0] < exp[0]-0.03 || got[0] > exp[0]+0.03 {
			t.Errorf("e=%v: pm = %v, want ≈%v", e, got[0], exp[0])
		}
		if got[1] < exp[1]-2 || got[1] > exp[1]+2 {
			t.Errorf("e=%v: nm = %v, want ≈%v", e, got[1], exp[1])
		}
	}
}

func TestFigure2HealthyVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	series := Figure2(&buf, Options{Seed: 2})
	for _, name := range []string{"LU", "SP", "FT"} {
		pts := series[name]
		if len(pts) < 1000 {
			t.Fatalf("%s: only %d points", name, len(pts))
		}
		lo, hi := 0, 0
		for _, p := range pts {
			if p.Sout < 0.2 {
				lo++
			}
			if p.Sout > 0.8 {
				hi++
			}
		}
		if lo == 0 || hi == 0 {
			t.Fatalf("%s: Sout never visits both extremes (lo=%d hi=%d)", name, lo, hi)
		}
	}
	// FT must spend much more of its time at Sout≈0 than LU (the long
	// transposes).
	ftLow, luLow := 0, 0
	for _, p := range series["FT"] {
		if p.Sout < 0.05 {
			ftLow++
		}
	}
	for _, p := range series["LU"] {
		if p.Sout < 0.05 {
			luLow++
		}
	}
	ftFrac := float64(ftLow) / float64(len(series["FT"]))
	luFrac := float64(luLow) / float64(len(series["LU"]))
	if ftFrac < 2*luFrac {
		t.Fatalf("FT low-Sout fraction (%.3f) should far exceed LU's (%.3f)", ftFrac, luFrac)
	}
}

func TestFigure3Flatline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	pts, faultAt := Figure3(&buf, Options{Seed: 4})
	if faultAt < 30*time.Second {
		t.Fatalf("fault at %v", faultAt)
	}
	var after []float64
	for _, p := range pts {
		if p.T > faultAt+3*time.Second {
			after = append(after, p.Sout)
		}
	}
	if len(after) < 100 {
		t.Fatalf("too few post-fault points: %d", len(after))
	}
	for _, v := range after {
		if v > 1.0/256+1e-9 {
			t.Fatalf("post-fault Sout = %v, want <= 1/256", v)
		}
	}
	if !strings.Contains(buf.String(), "# fault injected") {
		t.Fatal("missing fault annotation")
	}
}

func TestFigure4Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	panels := Figure4(io.Discard, Options{Seed: 5})
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		if p.N < 12 {
			t.Fatalf("panel with %d samples", p.N)
		}
		if p.Q <= 0 || p.Q > 0.77 {
			t.Fatalf("panel q = %v", p.Q)
		}
	}
	if panels[0].N >= panels[2].N {
		t.Fatal("panels must grow in sample size")
	}
}

func TestFigure10Savings(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	res := Figure10(&buf, Options{Runs: 4, Seed: 6})
	if len(res.Savings) != 4 {
		t.Fatalf("savings = %v", res.Savings)
	}
	// With faults uniform over a ~518s run in a 600s slot, savings per
	// run land in roughly (0, 95%) and the mean should be substantial.
	m := 0.0
	for _, s := range res.Savings {
		if s <= 0 || s >= 100 {
			t.Fatalf("saving %v%% out of range", s)
		}
		m += s
	}
	m /= float64(len(res.Savings))
	if m < 10 {
		t.Fatalf("mean savings %.1f%%, paper reports 35.5%%", m)
	}
}

func TestCauseTableAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Small-scale configuration of the same campaign the full table
	// runs at 256: every benchmark × diagnosable fault kind, scored
	// against injected ground truth.
	cells := CauseCampaign("tardis", 64, Options{Runs: 2, Seed: 2})
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	checked, correct, unknown := 0, 0, 0
	for _, c := range cells {
		m := c.Metrics
		checked += m.CauseChecked
		correct += m.CauseCorrect
		unknown += m.CauseUnknown
		if wrong := m.CauseChecked - m.CauseCorrect - m.CauseUnknown; wrong != 0 {
			t.Errorf("%s × %s: %d wrong named cause(s) under clean chaos", c.Bench, c.Kind, wrong)
		}
	}
	if checked == 0 {
		t.Fatal("no run was diagnosed: table is vacuous")
	}
	if acc := float64(correct) / float64(checked); acc < 0.95 {
		t.Fatalf("overall cause agreement %.2f (%d/%d, %d unknown), want >= 0.95",
			acc, correct, checked, unknown)
	}
}
