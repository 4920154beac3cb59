package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted values by
// linear interpolation between closest ranks, the estimator Python's
// statistics.quantiles(method="inclusive") and numpy's default use.
// It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// dist is the distribution record every metric carries in the report:
// its median, quartiles and sample count.
type dist struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize sorts a copy of the samples and returns their distribution.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{N: len(s), Q1: percentile(s, 0.25), Median: percentile(s, 0.5), Q3: percentile(s, 0.75)}
}

// p returns the q-quantile of unsorted samples.
func p(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, q)
}

// ratio is num/den, or 0 when den is 0 (a layer the workload does not
// exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
