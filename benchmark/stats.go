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

// median of xs (mean of the two middle values for even n); 0 for empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the samples at or below it. Nearest rank (not
// interpolation) keeps "samples beyond it" a whole number.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(xs, n=4), so spreads computed here and
// by whoever audits the benchmark agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(math.Floor(pos)), 1), n-1)
		// Outside [1, n] the fraction leaves [0, 1] and the line through
		// the two end samples is extended, as Python does.
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailCandidates are the percentiles a report may quote as its tail.
var tailCandidates = []float64{99.9, 99, 95, 90, 85, 80, 75}

// highestPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; ok is false when n is too small for any.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rank(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// logLogSlope is the least-squares slope of log(y) on log(x): the exponent
// b of the power law y = a·x^b. 1.0 is the paper's linear-scaling claim.
func logLogSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
