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

// median is the middle sample (mean of the two middle samples for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the candidates of the percentile rule, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile applies the choosing-metrics rule "report the highest
// percentile that has at least ten samples beyond it": of the candidate
// percentiles it returns the highest one with ≥10 of the n samples
// strictly above its rank, and 50 (the median) when even p90 has fewer.
func tailPercentile(n int) float64 {
	for _, pct := range tailPercentiles {
		if n-rankOf(pct, n)-1 >= 10 {
			return pct
		}
	}
	return 50
}

// rankOf is the zero-based index of percentile pct in n ascending
// samples (nearest rank, rounded up). It works in integer tenths of a
// percent, so p99.9 of 10 000 samples has exactly ten beyond it.
func rankOf(pct float64, n int) int {
	tenths := int(math.Round(pct * 10))
	r := (tenths*n+999)/1000 - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// percentile is the nearest-rank percentile of xs; NaN for no samples.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if pct == 50 {
		return median(xs)
	}
	return sorted(xs)[rankOf(pct, len(xs))]
}

// block is one equal-work slice of a run: ops completed and the host
// nanoseconds they took.
type block struct {
	ops   int
	hostN int64
}

// worseBy is how much b is worse than a, as a share of a, for a metric
// whose better direction is given ("lower" or "higher"); negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}
