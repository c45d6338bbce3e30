package main

import (
	"sort"
	"time"
)

// tailPermille lists the percentiles, in per mille, a timing may be
// reported at, highest first.
var tailPermille = []int{999, 990, 980, 950, 900, 750, 500}

// rank is the 1-based nearest-rank index of the permille-th percentile of n
// samples.
func rank(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest listed percentile (in per mille) with
// at least ten of n samples beyond it, and false when even the median has
// fewer.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailPermille {
		if n-rank(pm, n) >= 10 {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank permille-th percentile of xs (sorted
// in place), or 0 for no samples.
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(permille, len(xs))-1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) ("exclusive"), the
// rule the benchmark's spreads are judged by. xs is sorted in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	if n%2 == 1 {
		med = xs[n/2]
	} else {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return q(1), med, q(3)
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	_, med, _ := quartiles(xs)
	return med
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never runs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
