package mpi

import (
	"math"
	"time"

	"parastack/internal/sim"
)

// Latency models the time cost of simulated communication. All fields
// have sensible InfiniBand-flavoured defaults (see withDefaults); zero
// values are replaced so Latency{} is usable.
type Latency struct {
	// SendOverhead is CPU time a sender spends inside MPI_Send for an
	// eager message (library overhead, buffer copy).
	SendOverhead time.Duration
	// RecvOverhead is CPU time spent completing a receive.
	RecvOverhead time.Duration
	// TestOverhead is CPU time spent inside MPI_Test / MPI_Iprobe
	// (driving the progress engine). Busy-wait loops therefore spend
	// most of their time IN_MPI, matching the paper's observation that
	// polling processes only occasionally sample as OUT_MPI.
	TestOverhead time.Duration
	// Base is the per-message wire latency.
	Base time.Duration
	// BytesPerSec is point-to-point bandwidth.
	BytesPerSec float64
	// CollBase is the per-tree-level latency of a collective.
	CollBase time.Duration
	// CollBytesPerSec is effective collective bandwidth (per rank).
	CollBytesPerSec float64
	// Jitter is the relative spread applied to every latency draw:
	// a value of 0.2 scales each cost by a uniform factor in [0.8, 1.2].
	Jitter float64
}

// WithDefaults fills zero fields with defaults resembling a modern
// InfiniBand cluster. Numbers need only be plausible: experiments
// depend on the shape of Sout dynamics, not on absolute bandwidth.
func (l Latency) WithDefaults() Latency {
	if l.SendOverhead == 0 {
		l.SendOverhead = 2 * time.Microsecond
	}
	if l.RecvOverhead == 0 {
		l.RecvOverhead = 2 * time.Microsecond
	}
	if l.TestOverhead == 0 {
		l.TestOverhead = 50 * time.Microsecond
	}
	if l.Base == 0 {
		l.Base = 3 * time.Microsecond
	}
	if l.BytesPerSec == 0 {
		l.BytesPerSec = 6e9
	}
	if l.CollBase == 0 {
		l.CollBase = 5 * time.Microsecond
	}
	if l.CollBytesPerSec == 0 {
		l.CollBytesPerSec = 3e9
	}
	if l.Jitter == 0 {
		l.Jitter = 0.15
	}
	return l
}

// jittered scales d by a uniform factor in [1-Jitter, 1+Jitter].
func (l Latency) jittered(u sim.Uniform, d time.Duration) time.Duration {
	if l.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + l.Jitter*(2*u.Float64()-1)
	return time.Duration(float64(d) * f)
}

// p2p returns the wire latency of a point-to-point message of the given
// size.
func (l Latency) p2p(u sim.Uniform, bytes int) time.Duration {
	d := l.Base + time.Duration(float64(bytes)/l.BytesPerSec*float64(time.Second))
	return l.jittered(u, d)
}

// collective returns the completion latency of a collective after its
// dependency condition is met: a log-depth tree term plus a bandwidth
// term over the per-rank payload. Alltoall pays an additional factor
// because every rank exchanges with every other.
func (l Latency) collective(u sim.Uniform, kind CollKind, bytes, size int) time.Duration {
	depth := math.Log2(float64(size))
	if depth < 1 {
		depth = 1
	}
	d := time.Duration(depth * float64(l.CollBase))
	bw := time.Duration(float64(bytes) / l.CollBytesPerSec * float64(time.Second))
	switch kind {
	case CollAlltoall:
		// Per-rank payload crosses the bisection; cost grows with size.
		d += bw * time.Duration(int64(depth))
	case CollBarrier:
		// No payload.
	default:
		d += bw
	}
	return l.jittered(u, d)
}
