package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// xs is sorted in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank: the
// number of observations a reported percentile rests on from above. A
// percentile is only trustworthy with at least ten of them.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// median of a copy of xs (xs is left unsorted).
func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return cp[n/2]
	default:
		return (cp[n/2-1] + cp[n/2]) / 2
	}
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
