package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; 0 for
// an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailCandidates are the tail percentiles the benchmark ever reports,
// ascending.
var tailCandidates = []float64{0.90, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (the choosing-metrics rule).
const minBeyond = 10

// highestPercentile returns the highest tail percentile that n samples
// support — at least minBeyond samples lie beyond it — and false when n
// supports none, in which case only the median qualifies.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailCandidates {
		// Integer arithmetic on per-mille avoids 1000*(1-0.99) = 9.99….
		if n*(1000-int(math.Round(p*1000))) >= minBeyond*1000 {
			best, ok = p, true
		}
	}
	return best, ok
}

// supportedTail returns the p-quantile of xs when the sample count
// supports that percentile, else 0 ("not reported at this run length").
func supportedTail(xs []float64, p float64) float64 {
	if top, ok := highestPercentile(len(xs)); !ok || p > top {
		return 0
	}
	return percentile(xs, p)
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// so the spread printed by -check is the number the driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median; 0
// when fewer than two values exist or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
