package main

import (
	"math"
	"slices"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. Every value it returns is one that was measured.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the midpoint of xs (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread is judged from outside.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	// Python's integer arithmetic: rank i·(n+1)/4, with the lower index
	// clamped to 1..n−1 (so tiny samples extrapolate, as Python does).
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile distance as a share of the median.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// verdict is the comparator's judgement of one metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies the paired-run rule to one metric: parent[i] and change[i]
// are the i-th pair (same seed, run back to back). A gain needs the change
// to win at least nine tenths of the pairs (ties count for neither side)
// and the medians to differ by more than the parent's own interquartile
// distance. A regression is a median worse than the parent's by more than
// bound (a share of the parent's median). When the parent's spread exceeds
// bound the metric cannot be judged unchanged: it is unresolved unless every
// change run beats every parent run. A change whose paired runs failed more
// requests than the parent's is regressed, however fast it ran.
func judge(parent, change []float64, lowerIsBetter bool, bound float64, parentFailed, changeFailed int) verdict {
	n := min(len(parent), len(change))
	switch {
	case changeFailed > parentFailed:
		return regressed
	case n == 0:
		return unresolved
	}
	parent, change = parent[:n], change[:n]
	better := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	worse := (mc - mp) / math.Abs(mp) // share by which the change is worse
	if !lowerIsBetter {
		worse = -worse
	}
	gain := float64(wins) >= 0.9*float64(n) && math.Abs(mc-mp) > q3-q1 && worse < 0
	if relIQR(parent) > bound {
		if slices.Max(maybeNeg(change, lowerIsBetter)) < slices.Min(maybeNeg(parent, lowerIsBetter)) {
			if gain {
				return improved
			}
			return unchanged
		}
		return unresolved
	}
	switch {
	case worse > bound:
		return regressed
	case gain:
		return improved
	}
	return unchanged
}

// maybeNeg maps xs so that smaller always means better.
func maybeNeg(xs []float64, lowerIsBetter bool) []float64 {
	if lowerIsBetter {
		return xs
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}
