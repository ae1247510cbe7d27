package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of vs by the rule Python's statistics.quantiles(vs, n=4) uses (the
// default "exclusive" method), so a spread computed here is the number
// the acceptance check computes. Fewer than two values have no quartiles:
// all three are then the single value (or 0).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/n, i*(ld+1)%n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value of vs (mean of the two middle values for an
// even count), 0 for none.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise measure every bound is compared to.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, so the value is always one that was measured.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// medianInt64 is the median of a latency sample in its own unit.
func medianInt64(vs []int64) float64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return float64(s[n/2])
	default:
		return float64(s[n/2-1]+s[n/2]) / 2
	}
}
