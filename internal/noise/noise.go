// Package noise models the timing behaviour of the paper's three
// evaluation platforms — Tardis (16-node AMD cluster), Tianhe-2, and
// Stampede — as perturbations of computation intervals: static per-node
// speed imbalance, per-interval OS jitter, and the rare transient
// whole-application slowdowns observed on Tianhe-2 (§3.3) that a hang
// detector must not mistake for hangs.
package noise

import (
	"fmt"
	"math/rand"
	"time"

	"parastack/internal/mpi"
)

// Profile is a platform timing model.
type Profile struct {
	// Name identifies the platform ("tardis", "tianhe2", "stampede").
	Name string
	// DefaultPPN is the processes-per-node layout the paper used on the
	// platform (Tardis 8×32, Tianhe-2 64×16, Stampede 16 per node); it
	// is what harness runs use when RunConfig.PPN is zero. Zero falls
	// back to 16.
	DefaultPPN int
	// Speed divides every computation interval: >1 is a faster machine.
	Speed float64
	// CommSpeed scales the interconnect relative to the default latency
	// model: >1 is a faster network, <1 slower. Tardis's dated
	// InfiniBand is an order of magnitude behind Tianhe-2's TH-Express,
	// which is what stretches FT's class-D transposes into the
	// multi-second all-ranks-IN_MPI windows of Table 1.
	CommSpeed float64
	// Jitter is the relative half-width of uniform per-interval noise.
	Jitter float64
	// NodeImbalance is the relative half-width of a static per-node
	// speed factor, drawn once per run.
	NodeImbalance float64
	// SlowdownProb is the per-run probability that a transient
	// slowdown strikes somewhere in the run.
	SlowdownProb float64
	// SlowdownFactor multiplies computation for the affected ranks
	// while the slowdown window is active.
	SlowdownFactor float64
	// SlowdownMin/Max bound the window duration.
	SlowdownMin, SlowdownMax time.Duration
}

// Tardis returns the 16-node AMD cluster profile: quiet, no transient
// slowdowns.
func Tardis() Profile {
	return Profile{
		Name:          "tardis",
		DefaultPPN:    32,
		Speed:         1.0,
		CommSpeed:     0.10,
		Jitter:        0.03,
		NodeImbalance: 0.02,
	}
}

// Tianhe2 returns the Tianhe-2 profile: fast nodes, low steady-state
// noise (low utilization), but occasional substantial transient
// slowdowns (paper: fewer than 4 runs in 50). The slowdown factor is
// sized so that a slowed rank still crosses MPI calls within the
// transient-slowdown filter's trace gap — a process stalled for tens of
// seconds inside one computation is indistinguishable from a hang by
// any stack-based filter, the paper's included.
func Tianhe2() Profile {
	return Profile{
		Name:           "tianhe2",
		DefaultPPN:     16,
		Speed:          1.25,
		CommSpeed:      0.90,
		Jitter:         0.02,
		NodeImbalance:  0.015,
		SlowdownProb:   0.06,
		SlowdownFactor: 5,
		SlowdownMin:    4 * time.Second,
		SlowdownMax:    15 * time.Second,
	}
}

// Stampede returns the Stampede profile: higher steady-state system
// noise (high utilization) with rare slowdowns.
func Stampede() Profile {
	return Profile{
		Name:           "stampede",
		DefaultPPN:     16,
		Speed:          1.1,
		CommSpeed:      0.50,
		Jitter:         0.06,
		NodeImbalance:  0.04,
		SlowdownProb:   0.02,
		SlowdownFactor: 4,
		SlowdownMin:    2 * time.Second,
		SlowdownMax:    8 * time.Second,
	}
}

// Lookup returns the named profile, or an error naming the valid
// platforms on an unknown name.
func Lookup(name string) (Profile, error) {
	switch name {
	case "tardis":
		return Tardis(), nil
	case "tianhe2":
		return Tianhe2(), nil
	case "stampede":
		return Stampede(), nil
	default:
		return Profile{}, fmt.Errorf("noise: unknown platform %q (have %v)", name, Names())
	}
}

// Names lists the known platform names.
func Names() []string { return []string{"tardis", "tianhe2", "stampede"} }

// Latency returns the platform's point-to-point and collective latency
// model: the package defaults scaled by CommSpeed (zero or negative
// CommSpeed means 1.0).
func (p Profile) Latency() mpi.Latency {
	cs := p.CommSpeed
	if cs <= 0 {
		cs = 1
	}
	base := mpi.Latency{}.WithDefaults()
	base.Base = time.Duration(float64(base.Base) / cs)
	base.BytesPerSec *= cs
	base.CollBase = time.Duration(float64(base.CollBase) / cs)
	base.CollBytesPerSec *= cs
	return base
}

// Applied is an instantiated noise model bound to one world/run.
type Applied struct {
	Profile Profile

	nodeFactor []float64
	ppn        int

	// Transient slowdown window (zero when none scheduled).
	SlowStart, SlowEnd time.Duration
	slowRanks          map[int]bool
}

// Apply draws per-node factors, optionally schedules one transient
// slowdown inside [0, expectedDur], and installs a Perturb hook on w.
// ppn maps ranks to nodes. The same rng drives all draws, keeping the
// run deterministic.
func (p Profile) Apply(w *mpi.World, rng *rand.Rand, ppn int, expectedDur time.Duration) *Applied {
	if ppn <= 0 {
		ppn = 1
	}
	nodes := (w.Size() + ppn - 1) / ppn
	a := &Applied{Profile: p, ppn: ppn, nodeFactor: make([]float64, nodes)}
	for i := range a.nodeFactor {
		a.nodeFactor[i] = 1 + p.NodeImbalance*(2*rng.Float64()-1)
	}
	if p.SlowdownProb > 0 && rng.Float64() < p.SlowdownProb && expectedDur > 0 {
		dur := p.SlowdownMin + time.Duration(rng.Float64()*float64(p.SlowdownMax-p.SlowdownMin))
		start := time.Duration((0.2 + 0.6*rng.Float64()) * float64(expectedDur))
		a.SlowStart, a.SlowEnd = start, start+dur
		// A transient slowdown affects the ranks of one node: "a few
		// processes stepping through the code slowly".
		node := rng.Intn(nodes)
		a.slowRanks = map[int]bool{}
		for r := node * ppn; r < (node+1)*ppn && r < w.Size(); r++ {
			a.slowRanks[r] = true
		}
	}
	speed := p.Speed
	if speed <= 0 {
		speed = 1
	}
	jitter := p.Jitter
	// Per-interval jitter draws from the rank's own stream, not the
	// setup rng: the hook runs in rank execution context, and only a
	// per-rank stream keeps the draw sequence independent of the order
	// ranks happen to be dispatched in.
	w.Perturb = func(r *mpi.Rank, d time.Duration) time.Duration {
		f := a.nodeFactor[r.ID()/ppn] / speed
		if jitter > 0 {
			f *= 1 + jitter*(2*r.Rand().Float64()-1)
		}
		if a.slowRanks != nil {
			now := r.Now()
			if now >= a.SlowStart && now < a.SlowEnd && a.slowRanks[r.ID()] {
				f *= p.SlowdownFactor
			}
		}
		return time.Duration(float64(d) * f)
	}
	return a
}

// HasSlowdown reports whether a transient slowdown was scheduled.
func (a *Applied) HasSlowdown() bool { return a.slowRanks != nil }

// SlowdownActiveAt reports whether the slowdown window covers t.
func (a *Applied) SlowdownActiveAt(t time.Duration) bool {
	return a.slowRanks != nil && t >= a.SlowStart && t < a.SlowEnd
}
