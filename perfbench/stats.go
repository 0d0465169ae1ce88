package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave above
// it: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the q-th
// quantile under the nearest-rank rule used by quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of the q-th quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-th quantile of xs (q in [0,1]).
// xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest of the candidate quantiles (given in
// ascending order) that leaves at least minBeyond samples of n above it,
// and false when none does.
func tailPercentile(n int, candidates []float64) (float64, bool) {
	for i := len(candidates) - 1; i >= 0; i-- {
		if beyond(n, candidates[i]) >= minBeyond {
			return candidates[i], true
		}
	}
	return 0, false
}

// pct is one reported percentile with the sample count behind it.
type pct struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
}

// percentile computes the q-th quantile of xs with its sample accounting.
func percentile(xs []float64, q float64) pct {
	return pct{Q: q, Value: quantile(xs, q), N: len(xs), Beyond: beyond(len(xs), q)}
}

// enough reports whether the percentile rests on at least minBeyond
// samples above it (the median always does once n >= 2*minBeyond).
func (p pct) enough() bool { return p.Beyond >= minBeyond }

// meanOfMedians takes each input's median over repetitions, then the
// mean over inputs: repetitions absorb machine noise, inputs average out
// how much work each seed happens to generate.
func meanOfMedians(xs [][]float64) float64 {
	var meds []float64
	for _, x := range xs {
		if len(x) > 0 {
			meds = append(meds, median(x))
		}
	}
	return mean(meds)
}

// stepMedians takes a fixed set of steps timed over several passes —
// passes[p][s] is step s's latency in pass p — and returns each step's
// median over the passes. Percentiles over the result rest on the same
// steps whatever the number of passes, and a stall of the host in one
// pass does not reach them.
func stepMedians(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for s := range out {
		for p, xs := range passes {
			col[p] = xs[s]
		}
		out[s] = median(col)
	}
	return out
}
