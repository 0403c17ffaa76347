package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// sameBits reports whether a and b are the same float64: equal bits, or
// both NaN (sorting moves NaNs of different payloads about, and a NaN
// percentile takes the payload of whichever lands on its rank).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// summaryDiff names the first field where got and want differ, or returns
// "". With zeroSign the percentiles may disagree in the sign of a zero: the
// pre-Series sort left -0 and +0 in input order.
func summaryDiff(got, want Summary, zeroSign bool) string {
	if got.N != want.N {
		return "N"
	}
	fields := []struct {
		name      string
		got, want float64
		pct       bool
	}{
		{"Mean", got.Mean, want.Mean, false}, {"Stddev", got.Stddev, want.Stddev, false},
		{"CI95", got.CI95, want.CI95, false}, {"Min", got.Min, want.Min, false},
		{"Max", got.Max, want.Max, false}, {"P50", got.P50, want.P50, true},
		{"P90", got.P90, want.P90, true}, {"P95", got.P95, want.P95, true},
		{"P99", got.P99, want.P99, true},
	}
	for _, f := range fields {
		if !sameBits(f.got, f.want) && !(zeroSign && f.pct && f.got == 0 && f.want == 0) {
			return f.name
		}
	}
	return ""
}

// checkSeries adds batches to one Series and, after each, holds its Summary
// to Summarize of everything added so far, bit for bit, and to the
// pre-Series summary (reference_test.go) up to the sign of a zero
// percentile.
func checkSeries(t *testing.T, batches [][]float64) {
	t.Helper()
	var s Series
	var all []float64
	for b, batch := range batches {
		for _, x := range batch {
			s.Add(x)
			all = append(all, x)
		}
		got := s.Summary()
		if f := summaryDiff(got, Summarize(all), false); f != "" {
			t.Fatalf("after batch %d of %v: Series %s differs from Summarize:\n got %+v\nwant %+v",
				b, batches, f, got, Summarize(all))
		}
		if f := summaryDiff(got, referenceSummarize(all), true); f != "" {
			t.Fatalf("after batch %d of %v: Series %s differs from the reference:\n got %+v\nwant %+v",
				b, batches, f, got, referenceSummarize(all))
		}
	}
}

// seriesBatches decodes fuzz bytes into batches of values. Each value is one
// selector byte, and eight more for an arbitrary float64; selector 6 (mod 8)
// ends a batch. The selectors favour what a merge gets wrong: ties, both
// zeros, ±Inf and runs of one.
func seriesBatches(data []byte) [][]float64 {
	var batches [][]float64
	var cur, all []float64
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		var x float64
		switch sel % 8 {
		case 0:
			x = 0
		case 1:
			x = math.Copysign(0, -1)
		case 2:
			x = math.Inf(1)
		case 3:
			x = math.Inf(-1)
		case 4: // a tie with an earlier value
			if len(all) > 0 {
				x = all[int(sel>>3)%len(all)]
			}
		case 5:
			x = float64(sel>>3) - 16
		case 6:
			batches = append(batches, cur)
			cur = nil
			continue
		default:
			if len(data) < 8 {
				x = float64(sel)
				break
			}
			x = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		cur = append(cur, x)
		all = append(all, x)
	}
	return append(batches, cur)
}

// FuzzSeries: whatever batches a Series is fed, its Summary after each is
// Summarize of the whole sample so far.
func FuzzSeries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5})                               // one element
	f.Add([]byte{0, 1, 6, 1, 0, 6, 0, 1, 0})       // both zeros, across batches
	f.Add([]byte{2, 3, 6, 3, 2, 45, 6, 4, 12, 20}) // ±Inf and ties
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 6, 15, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSeries(t, seriesBatches(data))
	})
}

// Property: the same on 2 000 seeded runs of up to 12 batches — batches of
// nothing and of one, values drawn to tie, both zeros, ±Inf, NaN, and
// magnitudes from 1e-300 to 1e300.
func TestProperty_SeriesMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	value := func(pool []float64) float64 {
		switch rng.IntN(9) {
		case 0:
			return math.Copysign(0, float64(rng.IntN(2)*2-1))
		case 1:
			if len(pool) > 0 {
				return pool[rng.IntN(len(pool))]
			}
		case 2:
			return float64(rng.IntN(5))
		case 3:
			return math.Inf(rng.IntN(2)*2 - 1)
		case 4:
			if rng.IntN(20) == 0 {
				return math.NaN()
			}
		}
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(601)-300))
	}
	for trial := 0; trial < 2000; trial++ {
		var batches [][]float64
		var pool []float64
		for range 1 + rng.IntN(12) {
			batch := []float64{}
			for range []int{0, 1, 1 + rng.IntN(40)}[rng.IntN(3)] {
				x := value(pool)
				batch = append(batch, x)
				pool = append(pool, x)
			}
			batches = append(batches, batch)
		}
		checkSeries(t, batches)
	}
}

// A Summary with nothing added since the last one allocates nothing, and
// one after a small addition to a long sample sorts and merges the addition
// in the kept buffers: once they have room, it allocates nothing either.
func TestSeriesReusesBuffers(t *testing.T) {
	s := Series{xs: make([]float64, 0, 5000), sorted: make([]float64, 0, 5000)}
	for i := range 4000 {
		s.Add(float64((i * 7919) % 4001))
	}
	s.Summary()
	if a := testing.AllocsPerRun(50, func() { s.Summary() }); a != 0 {
		t.Errorf("an unchanged Summary allocates %.0f times, want 0", a)
	}
	i := 0
	if a := testing.AllocsPerRun(50, func() {
		i++
		s.Add(float64(i * 37 % 4001))
		s.Summary()
	}); a != 0 {
		t.Errorf("a Summary after one Add allocates %.0f times, want 0", a)
	}
}
