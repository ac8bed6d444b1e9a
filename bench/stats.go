package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values, 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n >= 1
// sorted values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 90% of 100 is 90, whatever the floating point says
	return min(max(r, 1), n)
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}

// tailSupport is the number of samples that must lie beyond a percentile for
// it to be reported.
const tailSupport = 10

// tailPercentile returns the highest of the conventional percentiles that n
// samples support: at least tailSupport of them lie beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if n > 0 && n-rank(n, p) >= tailSupport {
			best = p
		}
	}
	return best
}

// spreadOf returns a sample's median and the distance between its first and
// third quartile as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method); the spread is 0
// for fewer than two values.
func spreadOf(values []float64) (med, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return percentile(s, 50), 0
	}
	q := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med = q(2)
	if med == 0 {
		return 0, 0
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}

func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}
