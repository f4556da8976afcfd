package stats

import "slices"

// ECDF is an empirical cumulative distribution function over a sample
// set. It supports the two operations ParaStack's model needs:
// evaluating Fn(x) and inverting it (quantiles over observed values).
//
// It counts each distinct value once: vals holds the distinct values in
// increasing order and cum[k] the number of samples <= vals[k] (fewer
// than 2^31 in all). Scrout is a fraction of a handful of sampled
// processes, so a window of thousands of samples holds a few dozen
// distinct values, and a query is a search over those.
//
// The view can be built in one go (NewECDF, Reset: sort, then
// run-length compress) or maintained one value at a time (Insert,
// Replace: two searches, then work proportional to the distinct values
// lying between the two samples). Both leave the same multiset, so
// every query answers identically either way. Values must not be NaN:
// NaN has no place in the order, and a maintained view could never find
// it again. Equal values share one entry, so +0 and -0 count as one
// value, stored as either.
type ECDF struct {
	vals []float64
	cum  []int32
}

// NewECDF builds an ECDF from samples (the input slice is not retained).
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{}
	e.Reset(samples)
	return e
}

// Reset reinitializes the ECDF in place from samples, reusing both
// buffers' capacity (the input slice is not retained). It costs a full
// sort; callers that change one value at a time use Insert and Replace
// instead.
func (e *ECDF) Reset(samples []float64) {
	vals := append(e.vals[:0], samples...)
	slices.Sort(vals)
	cum := e.cum[:0]
	d := 0
	for r, v := range vals {
		if d > 0 && vals[d-1] == v {
			cum[d-1] = int32(r + 1)
			continue
		}
		vals[d] = v
		cum = append(cum, int32(r+1))
		d++
	}
	e.vals, e.cum = vals[:d], cum
}

// rank returns how many values of the sorted s are <= x. It halves the
// candidate range while that is long and then counts what is left, with
// no branch on the data: which way a Scrout sample falls is a coin toss,
// so a branch would be mispredicted about once per step. (The compiler
// turns "if c { le = 1 }" into a read of the comparison's flag.)
func rank[T int32 | float64](s []T, x T) int {
	base, n := 0, len(s)
	for n > 8 {
		half := n >> 1
		le := 0
		if s[base+half] <= x {
			le = 1
		}
		base += half & -le
		n -= half
	}
	for _, v := range s[base : base+n] {
		le := 0
		if v <= x {
			le = 1
		}
		base += le
	}
	return base
}

// find returns x's entry and true, or where an entry for x would go and
// false.
func (e *ECDF) find(x float64) (int, bool) {
	k := rank(e.vals, x)
	if k > 0 && e.vals[k-1] == x {
		return k - 1, true
	}
	return k, false
}

// before returns the number of samples < vals[k] (cum[k-1], or 0).
func (e *ECDF) before(k int) int32 {
	if k == 0 {
		return 0
	}
	return e.cum[k-1]
}

// add adds delta to cum[lo:hi].
func (e *ECDF) add(lo, hi int, delta int32) {
	c := e.cum[lo:hi]
	for k := range c {
		c[k] += delta
	}
}

// insertAt opens entry k for v with cumulative count c.
func (e *ECDF) insertAt(k int, v float64, c int32) {
	e.vals = slices.Insert(e.vals, k, v)
	e.cum = slices.Insert(e.cum, k, c)
}

// removeAt closes entry k.
func (e *ECDF) removeAt(k int) {
	e.vals = slices.Delete(e.vals, k, k+1)
	e.cum = slices.Delete(e.cum, k, k+1)
}

// Insert adds one value in place.
func (e *ECDF) Insert(v float64) {
	j, ok := e.find(v)
	if !ok {
		e.insertAt(j, v, e.before(j))
	}
	e.add(j, len(e.cum), 1)
}

// Replace swaps one occurrence of old for v in place and reports
// whether old was there. Only the entries for values between the two
// change: their counts move by one, and an entry opens for v if it is
// new and closes for old if this was its last copy. When both happen
// the entries in between shift by one slot towards old's, and if each
// of them holds a single sample (all-distinct input) their cumulative
// counts come out as they were, so only the values move.
func (e *ECDF) Replace(old, v float64) bool {
	// The searches are spelled out, not calls to find, so that they
	// inline: on a few dozen entries a call costs as much as a search.
	i := rank(e.vals, old) - 1
	if i < 0 || e.vals[i] != old {
		return false
	}
	if v == old {
		return true
	}
	j := rank(e.vals, v) // v's entry is j-1 if v is present, else v goes at j
	present := j > 0 && e.vals[j-1] == v
	if present {
		j--
	}
	last := e.cum[i]-e.before(i) == 1
	switch {
	case last && !present && v > old:
		// Entries i+1..j-1 move down a slot, each a sample short.
		if c := e.cum[i:j]; int(c[len(c)-1]-e.before(i)) != len(c) {
			for k := range len(c) - 1 {
				c[k] = c[k+1] - 1
			}
		}
		copy(e.vals[i:j-1], e.vals[i+1:j])
		e.vals[j-1] = v
		return true
	case last && !present:
		// Entries j..i-1 move up a slot, each a sample up.
		if c := e.cum[j : i+1]; int(c[len(c)-1]-e.before(j)) != len(c) {
			for k := len(c) - 1; k > 0; k-- {
				c[k] = c[k-1] + 1
			}
			c[0] = e.before(j) + 1
		}
		copy(e.vals[j+1:i+1], e.vals[j:i])
		e.vals[j] = v
		return true
	}
	// The entries for the values in [old, v) lose a sample, or those in
	// [v, old) gain one.
	if v > old {
		e.add(i, j, -1)
	} else {
		e.add(j, i, 1)
	}
	if last {
		e.removeAt(i)
	} else if !present {
		e.insertAt(j, v, e.before(j)+1)
	}
	return true
}

// N returns the sample count.
func (e *ECDF) N() int {
	if len(e.cum) == 0 {
		return 0
	}
	return int(e.cum[len(e.cum)-1])
}

// Sorted returns every sample in increasing order, each distinct value
// repeated as often as it was observed. It allocates; it exists so that
// tests can compare the view against a sorted copy of its input.
func (e *ECDF) Sorted() []float64 {
	out := make([]float64, 0, e.N())
	for k, v := range e.vals {
		for range e.cum[k] - e.before(k) {
			out = append(out, v)
		}
	}
	return out
}

// F returns Fn(x) = fraction of samples <= x.
func (e *ECDF) F(x float64) float64 {
	k := rank(e.vals, x)
	if k == 0 {
		return 0
	}
	return float64(e.cum[k-1]) / float64(e.N())
}

// Quantile returns the smallest observed value t with Fn(t) >= p, i.e.
// Fn^{-1}(p). For p <= 0 it returns the minimum; for p > 1 the maximum.
// It panics on an empty ECDF.
func (e *ECDF) Quantile(p float64) float64 {
	n := e.N()
	if n == 0 {
		panic("stats: quantile of empty ECDF")
	}
	if p <= 0 {
		return e.vals[0]
	}
	// Fn(vals[k]) = cum[k]/n, so the answer is the first entry whose
	// cumulative count reaches c = ceil(p*n): the one after every entry
	// counting at most c-1.
	c := int(p * float64(n))
	if float64(c) < p*float64(n) {
		c++ // ceil
	}
	if c > n {
		c = n
	}
	return e.vals[rank(e.cum, int32(c-1))]
}

// Values returns distinct observed values in increasing order (a copy).
func (e *ECDF) Values() []float64 {
	return slices.Clone(e.vals)
}

// Below returns the largest observed value strictly below x and whether
// one exists.
func (e *ECDF) Below(x float64) (float64, bool) {
	k, _ := e.find(x)
	if k == 0 {
		return 0, false
	}
	return e.vals[k-1], true
}
