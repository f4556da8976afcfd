package workload

import (
	"math"
	"time"

	"parastack/internal/fault"
	"parastack/internal/mpi"
)

// grid2D returns the near-square process grid (rows <= cols) the NPB
// skeletons lay ranks on, row-major.
func grid2D(p int) (rows, cols int) {
	r := int(math.Sqrt(float64(p)))
	for r > 1 && p%r != 0 {
		r--
	}
	if r < 1 {
		r = 1
	}
	return r, p / r
}

// chunk draws one computation slice: frac of the per-iteration budget,
// skewed per rank per call by the application-inherent imbalance.
func (p Params) chunk(r *mpi.Rank, frac float64) time.Duration {
	d := float64(p.Compute) * frac
	if p.Skew > 0 {
		// Rank-local stream: chunk draws happen in rank execution
		// context, so a shared stream would make the sequence depend on
		// the order ranks happen to be dispatched in.
		d *= 1 + p.Skew*(2*r.Rand().Float64()-1)
	}
	return time.Duration(d)
}

// exchange performs a bidirectional halo swap with a neighbor pair
// (both directions of one dimension), using distinct tags per phase.
func exchange(r *mpi.Rank, plus, minus, tag, bytes int) {
	r.SendRecv(plus, tag, bytes, minus, tag)
	r.SendRecv(minus, tag+1, bytes, plus, tag+1)
}

// adiBody is the BT/SP skeleton: per iteration, three ADI sweep phases
// (x, y, z line solves), each a computation slice followed by halo
// exchanges along one grid dimension, plus a periodic residual
// allreduce. BT and SP differ only in calibration (heavier iterations
// vs. more of them).
func (p Params) adiBody(inj *fault.Injector) func(*mpi.Rank) {
	rows, cols := grid2D(p.Procs)
	return func(r *mpi.Rank) {
		row, col := r.ID()/cols, r.ID()%cols
		east := row*cols + (col+1)%cols
		west := row*cols + (col+cols-1)%cols
		north := ((row+rows-1)%rows)*cols + col
		south := ((row+1)%rows)*cols + col
		for it := 0; it < p.Iters; it++ {
			r.Call("compute_rhs", func() {
				r.Compute(p.chunk(r, 0.25))
				inj.Check(r, it)
			})
			r.Call("x_solve", func() { r.Compute(p.chunk(r, 0.25)) })
			exchange(r, east, west, it*8, p.HaloBytes)
			r.Call("y_solve", func() { r.Compute(p.chunk(r, 0.25)) })
			exchange(r, north, south, it*8+2, p.HaloBytes)
			r.Call("z_solve", func() { r.Compute(p.chunk(r, 0.25)) })
			exchange(r, east, west, it*8+4, p.HaloBytes)
			if p.ReduceEvery > 0 && (it+1)%p.ReduceEvery == 0 {
				r.Allreduce(64)
			}
		}
	}
}

// cgBody is the CG skeleton: per iteration a sparse matrix-vector
// product with ring halo exchange, then dot products realized as tiny
// allreduces — the high-frequency global synchronization that makes CG
// sensitive to any rank stalling.
func (p Params) cgBody(inj *fault.Injector) func(*mpi.Rank) {
	size := p.Procs
	return func(r *mpi.Rank) {
		next := (r.ID() + 1) % size
		prev := (r.ID() + size - 1) % size
		for it := 0; it < p.Iters; it++ {
			r.Call("spmv", func() {
				r.Compute(p.chunk(r, 0.7))
				inj.Check(r, it)
			})
			exchange(r, next, prev, it*4, p.HaloBytes)
			r.Call("dot_r", func() { r.Compute(p.chunk(r, 0.1)) })
			r.Allreduce(8)
			r.Call("axpy", func() { r.Compute(p.chunk(r, 0.2)) })
			r.Allreduce(8)
		}
	}
}

// ftBody is the FT skeleton: a long local FFT computation followed by a
// monolithic all-to-all transpose whose duration scales with the
// per-rank volume — at class D on a slow interconnect the transpose
// holds every rank IN_MPI for several seconds, the stretch that defeats
// fixed timeouts (Table 1).
func (p Params) ftBody(inj *fault.Injector) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		for it := 0; it < p.Iters; it++ {
			r.Call("fft_local", func() {
				r.Compute(p.chunk(r, 0.85))
				inj.Check(r, it)
			})
			r.Alltoall(p.CollBytes)
			r.Call("fft_post", func() { r.Compute(p.chunk(r, 0.15)) })
			if p.ReduceEvery > 0 && (it+1)%p.ReduceEvery == 0 {
				r.Allreduce(16) // checksum
			}
		}
	}
}

// luBody is the LU (SSOR) skeleton: per iteration a lower and an upper
// sweep, each a computation slice bounded by wavefront-flavored halo
// exchanges, with a periodic residual allreduce.
func (p Params) luBody(inj *fault.Injector) func(*mpi.Rank) {
	rows, cols := grid2D(p.Procs)
	return func(r *mpi.Rank) {
		row, col := r.ID()/cols, r.ID()%cols
		east := row*cols + (col+1)%cols
		west := row*cols + (col+cols-1)%cols
		north := ((row+rows-1)%rows)*cols + col
		south := ((row+1)%rows)*cols + col
		for it := 0; it < p.Iters; it++ {
			r.Call("jacld_blts", func() {
				r.Compute(p.chunk(r, 0.45))
				inj.Check(r, it)
			})
			exchange(r, south, north, it*8, p.HaloBytes)
			r.Call("jacu_buts", func() { r.Compute(p.chunk(r, 0.45)) })
			exchange(r, east, west, it*8+2, p.HaloBytes)
			r.Call("rhs_update", func() { r.Compute(p.chunk(r, 0.10)) })
			if p.ReduceEvery > 0 && (it+1)%p.ReduceEvery == 0 {
				r.Allreduce(40)
			}
		}
	}
}

// mgBody is the MG skeleton: V-cycles walking Levels grids down and up,
// with halo exchanges shrinking geometrically per level and a global
// reduction at the coarsest grid.
func (p Params) mgBody(inj *fault.Injector) func(*mpi.Rank) {
	size := p.Procs
	levels := p.Levels
	if levels <= 0 {
		levels = 6
	}
	// Per-level weights 2^-l, normalized over down+up passes.
	weights := make([]float64, levels)
	sum := 0.0
	for l := range weights {
		weights[l] = math.Pow(0.5, float64(l))
		sum += 2 * weights[l]
	}
	return func(r *mpi.Rank) {
		next := (r.ID() + 1) % size
		prev := (r.ID() + size - 1) % size
		for it := 0; it < p.Iters; it++ {
			tag := it * (4*levels + 4)
			for l := 0; l < levels; l++ { // restriction
				r.Call("smooth_down", func() {
					r.Compute(p.chunk(r, weights[l]/sum))
					if l == 0 {
						inj.Check(r, it)
					}
				})
				exchange(r, next, prev, tag+4*l, p.HaloBytes>>(2*l))
			}
			r.Allreduce(8)                     // coarsest-grid solve
			for l := levels - 1; l >= 0; l-- { // prolongation
				r.Call("smooth_up", func() { r.Compute(p.chunk(r, weights[l]/sum)) })
			}
			if p.ReduceEvery > 0 && (it+1)%p.ReduceEvery == 0 {
				r.Allreduce(8)
			}
		}
	}
}
