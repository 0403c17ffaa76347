package stats

import (
	"math"
	"sort"
)

// referenceSummarize is Summarize before Series, the oracle the differential
// tests hold Series and Summarize against: the mean three times, the
// variance twice, and the percentiles of one copy sorted by sort.Float64s,
// which leaves -0 and +0 in whatever order its input had them.
func referenceSummarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: referenceStddev(xs),
		CI95:   referenceCI95(xs),
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

func referenceVariance(xs []float64) float64 {
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

func referenceStddev(xs []float64) float64 { return math.Sqrt(referenceVariance(xs)) }

func referenceCI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * referenceStddev(xs) / math.Sqrt(float64(len(xs)))
}
