package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does. It
// returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by Python's
// statistics.quantiles(xs, n=4) default ("exclusive") method, so the
// spreads this benchmark reports match the ones its gate computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, and its value; ok is false below twenty samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	rank := n - 10 // the rank-th smallest value has ten values above it
	return 100 * float64(rank) / float64(n), sorted(xs)[rank-1], true
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts operations — recordings, campaign runs, figure
// regenerations — and how many of them failed. A failed output check
// counts as a failed operation.
type tally struct {
	attempted int
	failed    int
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedFrac is failed over attempted operations (0 when none ran).
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// worse reports whether cur is worse than base by more than bound (a share
// of base) for a metric where lower (better == "lower") or higher values
// are better: the benchmark's no-regression rule.
func worse(base, cur, bound float64, better string) bool {
	if base == 0 {
		return false
	}
	rel := (cur - base) / base
	if better == "higher" {
		rel = -rel
	}
	return rel > bound
}
