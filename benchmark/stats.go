package main

import (
	"slices"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantileSorted is the nearest-rank quantile of an ascending sample set:
// the value below which a fraction q of the samples lie. Used inside a slice,
// where samples number in the thousands and interpolation changes nothing.
func quantileSorted(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does —
// the estimator the benchmark driver applies to the ten per-seed values of a
// metric, so the A/A check here computes the very spread the driver will.
// Fewer than two values have no spread; both quartiles are then the value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// iqrFrac is the inter-quartile range of xs as a share of its median: the
// spread the driver compares against a metric's bound.
func iqrFrac(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}
