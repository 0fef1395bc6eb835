package main

import (
	"math"
	"sort"
)

// summary describes one timing's samples: count, median, quartiles and
// the tail percentile the reporting rule allows.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest reported percentile with at least ten
	// samples beyond it (0 when fewer than 20 samples exist), and Tail
	// its value.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(xs)
	s := summary{N: len(xs), Median: q2, Q1: q1, Q3: q3}
	s.TailPct, s.Tail, _ = tailPercentile(xs)
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs into four groups exactly
// as Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so the spreads this program prints are the ones
// an external check over the same values gets. The middle cut is the
// median. One sample gives that sample for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// tailLadder lists the percentiles, in tenths of a percent, the tail
// rule chooses from, highest first.
var tailLadder = []int{999, 990, 980, 950, 900, 750, 500}

// tailPercentile applies the reporting rule: the highest percentile of
// the ladder with at least ten samples beyond it, by nearest rank. ok
// is false when even the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, pm := range tailLadder {
		if n*(1000-pm)/1000 < 10 {
			continue
		}
		s := sorted(xs)
		rank := int(math.Ceil(float64(pm) * float64(n) / 1000))
		return float64(pm) / 10, s[rank-1], true
	}
	return 0, 0, false
}
