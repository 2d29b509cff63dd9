package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match that computation digit for digit.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// mannWhitney tests whether two samples come from the same distribution.
// It returns the U statistic of a and the two-sided p-value from the
// normal approximation with tie and continuity corrections, which is
// adequate from about eight runs per side.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks for ties; tieTerm accumulates sum(t^3 - t) over tie groups.
	var rankA, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += mid
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	u = rankA - n1*(n1+1)/2
	n := n1 + n2
	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		return u, 1 // every value tied
	}
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	return u, math.Erfc(z / math.Sqrt2)
}
