package stats

import (
	"slices"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample
// set. It supports the two operations ParaStack's model needs:
// evaluating Fn(x) and inverting it (quantiles over observed values).
//
// The sorted view can be built in one go (NewECDF, Reset: copy + sort)
// or maintained one value at a time (Insert, Replace: binary search +
// one memmove). Both leave the same sorted multiset, so every query
// answers identically either way. Values must not be NaN: NaN has no
// place in the order, and a maintained view could never find it again.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (the input slice is not retained).
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{}
	e.Reset(samples)
	return e
}

// Reset reinitializes the ECDF in place from samples, reusing the
// sorted buffer's capacity (the input slice is not retained). It costs
// a full sort; callers that change one value at a time use Insert and
// Replace instead.
func (e *ECDF) Reset(samples []float64) {
	if cap(e.sorted) < len(samples) {
		e.sorted = make([]float64, len(samples))
	}
	e.sorted = e.sorted[:len(samples)]
	copy(e.sorted, samples)
	sort.Float64s(e.sorted)
}

// Grow ensures capacity for n values, so a caller maintaining a bounded
// window sizes the buffer once and Insert never reallocates.
func (e *ECDF) Grow(n int) {
	if extra := n - len(e.sorted); extra > 0 {
		e.sorted = slices.Grow(e.sorted, extra)
	}
}

// above returns the number of values <= x, which is also the first
// index holding a value > x.
func (e *ECDF) above(x float64) int {
	lo, hi := 0, len(e.sorted)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); e.sorted[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert adds one value in place. It goes after any equal values, so
// only the strictly greater ones move.
func (e *ECDF) Insert(v float64) {
	i := e.above(v)
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[i+1:], e.sorted[i:])
	e.sorted[i] = v
}

// Replace swaps one occurrence of old for v in place — a removal and
// an insertion that move only the values lying between the two — and
// reports whether old was there.
func (e *ECDF) Replace(old, v float64) bool {
	i := e.above(old) - 1
	if i < 0 || e.sorted[i] != old {
		return false
	}
	if j := e.above(v); j > i {
		copy(e.sorted[i:], e.sorted[i+1:j])
		e.sorted[j-1] = v
	} else {
		copy(e.sorted[j+1:], e.sorted[j:i])
		e.sorted[j] = v
	}
	return true
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// Sorted returns every value in increasing order (not a copy; do not
// mutate).
func (e *ECDF) Sorted() []float64 { return e.sorted }

// F returns Fn(x) = fraction of samples <= x.
func (e *ECDF) F(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return float64(e.above(x)) / float64(len(e.sorted))
}

// Quantile returns the smallest observed value t with Fn(t) >= p, i.e.
// Fn^{-1}(p). For p <= 0 it returns the minimum; for p > 1 the maximum.
// It panics on an empty ECDF.
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		panic("stats: quantile of empty ECDF")
	}
	if p <= 0 {
		return e.sorted[0]
	}
	k := int(p * float64(n))
	// Fn(sorted[i]) >= (i+1)/n, so the smallest index with Fn >= p is
	// ceil(p*n) - 1.
	if float64(k) < p*float64(n) {
		k++ // ceil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return e.sorted[k-1]
}

// Values returns distinct observed values in increasing order.
func (e *ECDF) Values() []float64 {
	out := make([]float64, 0, len(e.sorted))
	for i, v := range e.sorted {
		if i == 0 || v != e.sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Below returns the largest observed value strictly below x and whether
// one exists.
func (e *ECDF) Below(x float64) (float64, bool) {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= x })
	if i == 0 {
		return 0, false
	}
	return e.sorted[i-1], true
}
