// Package stats provides the small statistical toolkit the evaluation needs:
// moments, percentiles, confidence intervals, and histograms. It exists so
// experiment code never hand-rolls these (and so they are tested once).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance; 0 for fewer than 2 samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Stddev returns the sample standard deviation.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It panics on an empty slice or
// out-of-range p; percentiles of nothing are a caller bug.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile(%g)", p))
	}
	return percentileSorted(sortedCopy(xs), p)
}

func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// percentileSorted is Percentile on an already sorted sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean; 0 for fewer than 2 samples.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * Stddev(xs) / math.Sqrt(float64(len(xs)))
}

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N                  int
	Mean, Stddev, CI95 float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary; the zero Summary is returned for an empty
// sample. It sorts one copy of the sample for all four percentiles.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := sortedCopy(xs)
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		CI95:   CI95(xs),
		Min:    xs[0],
		Max:    xs[0],
		P50:    percentileSorted(sorted, 50),
		P90:    percentileSorted(sorted, 90),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
	}
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// RelChange returns (b−a)/a, the relative change from a to b, as used for
// the paper's "+19%" style comparisons. It panics when a is 0.
func RelChange(a, b float64) float64 {
	if a == 0 {
		panic("stats: RelChange from zero baseline")
	}
	return (b - a) / a
}
