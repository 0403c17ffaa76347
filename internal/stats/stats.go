// Package stats provides the small statistical toolkit the evaluation needs:
// moments, percentiles, confidence intervals, and histograms. It exists so
// experiment code never hand-rolls these (and so they are tested once).
package stats

import (
	"fmt"
	"math"
	"slices"
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
	return variance(xs, Mean(xs))
}

// variance is the unbiased variance of xs about its mean m; len(xs) ≥ 2.
func variance(xs []float64, m float64) float64 {
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
	zerosInOrder(sorted)
	return sorted
}

// zerosInOrder puts every -0 of a sorted sample before every +0. A sort
// leaves the two zeros, which compare equal, in whatever order its input had
// them; with this a sample merged from sorted runs reads exactly like the
// same sample sorted whole, down to the sign of a zero percentile.
func zerosInOrder(sorted []float64) {
	lo := sort.SearchFloat64s(sorted, 0)
	neg, hi := 0, lo
	for ; hi < len(sorted) && sorted[hi] == 0; hi++ {
		if math.Signbit(sorted[hi]) {
			neg++
		}
	}
	if neg == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		sorted[i] = 0
		if i-lo < neg {
			sorted[i] = math.Copysign(0, -1)
		}
	}
}

// floatLess is the order slices.Sort and sort.Float64s put float64s in:
// ascending, NaNs first.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

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
	return ci95(Stddev(xs), len(xs))
}

// ci95 is CI95 of n ≥ 2 samples of standard deviation stddev.
func ci95(stddev float64, n int) float64 { return 1.96 * stddev / math.Sqrt(float64(n)) }

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N                  int
	Mean, Stddev, CI95 float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary; the zero Summary is returned for an empty
// sample. It is a Series's one summary: one sorted copy of the sample for all
// four percentiles, one pass each for the mean and the variance.
func Summarize(xs []float64) Summary {
	s := Series{xs: xs}
	return s.Summary()
}

// Series is a sample that grows: Add appends a value, and Summary describes
// every value added so far. Between calls Summary keeps a sorted copy of the
// sample, and it sorts only what was added since the last call and merges
// that in, so summarizing a long sample again after a few additions costs the
// additions and one pass over the sample, not a sort of all of it. Every
// field equals, bit for bit, Summarize of the whole sample. The zero Series
// is empty and ready to use.
type Series struct {
	xs     []float64 // every value, in the order added
	sorted []float64 // xs[:len(sorted)], sorted
	fresh  []float64 // scratch: the values added since the last Summary
	// sum, min and max are of xs[:len(sorted)], taken in the order added.
	sum, min, max float64
	last          Summary // of xs[:len(sorted)]
}

// Add appends x to the sample.
func (s *Series) Add(x float64) { s.xs = append(s.xs, x) }

// Grow makes room for n more values, so that many Adds do not reallocate.
func (s *Series) Grow(n int) { s.xs = slices.Grow(s.xs, n) }

// Summary computes the Summary of every value added so far; the zero Summary
// for an empty sample. The mean, stddev and CI95 are taken over the values in
// the order added, as Summarize takes them over its slice.
func (s *Series) Summary() Summary {
	n, seen := len(s.xs), len(s.sorted)
	if n == seen {
		return s.last
	}
	added := s.xs[seen:]
	if seen == 0 {
		s.min, s.max = added[0], added[0]
	}
	for _, x := range added {
		s.sum += x
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if seen == 0 {
		s.sorted = append(s.sorted, added...)
		slices.Sort(s.sorted)
	} else {
		s.fresh = append(s.fresh[:0], added...)
		slices.Sort(s.fresh)
		s.sorted = merge(s.sorted, s.fresh)
	}
	zerosInOrder(s.sorted)

	mean := s.sum / float64(n)
	stddev, ci := 0.0, 0.0
	if n >= 2 {
		stddev = math.Sqrt(variance(s.xs, mean))
		ci = ci95(stddev, n)
	}
	s.last = Summary{
		N:      n,
		Mean:   mean,
		Stddev: stddev,
		CI95:   ci,
		Min:    s.min,
		Max:    s.max,
		P50:    percentileSorted(s.sorted, 50),
		P90:    percentileSorted(s.sorted, 90),
		P95:    percentileSorted(s.sorted, 95),
		P99:    percentileSorted(s.sorted, 99),
	}
	return s.last
}

// merge merges the sorted run fresh into the sorted run sorted and returns
// the grown slice. It fills from the back, so only the values of sorted that
// are greater than some value of fresh move.
func merge(sorted, fresh []float64) []float64 {
	i := len(sorted) - 1
	sorted = append(sorted, fresh...)
	for j, w := len(fresh)-1, len(sorted)-1; j >= 0; w-- {
		if i >= 0 && floatLess(fresh[j], sorted[i]) {
			sorted[w] = sorted[i]
			i--
		} else {
			sorted[w] = fresh[j]
			j--
		}
	}
	return sorted
}

// RelChange returns (b−a)/a, the relative change from a to b, as used for
// the paper's "+19%" style comparisons. It panics when a is 0.
func RelChange(a, b float64) float64 {
	if a == 0 {
		panic("stats: RelChange from zero baseline")
	}
	return (b - a) / a
}
