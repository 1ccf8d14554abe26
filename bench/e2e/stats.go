package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the spread rule for this benchmark is stated in. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4 // after clamping j, so the ends extrapolate as Python's do
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worsening is how far b is worse than a, as a share of a: positive
// when b moved against the metric's direction. End-to-end metrics are
// chosen never to be 0, so a is a valid base.
func worsening(a, b float64, higherIsBetter bool) float64 {
	d := (b - a) / a
	if higherIsBetter {
		return -d
	}
	return d
}

const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict classifies a change from a to b against a bound: beyond the
// bound in the bad direction is worse, beyond it in the good direction
// is better. A change beyond the bound that noise could explain (noisy)
// is unresolved in either direction.
func verdict(a, b float64, higherIsBetter bool, bound float64, noisy bool) string {
	w := worsening(a, b, higherIsBetter)
	switch {
	case w > bound && noisy, w < -bound && noisy:
		return verdictUnresolved
	case w > bound:
		return verdictWorse
	case w < -bound:
		return verdictBetter
	default:
		return verdictSame
	}
}
