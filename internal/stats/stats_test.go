package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean wrong")
	}
}

func TestVarianceAndStddev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single sample != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Variance(xs), 32.0/7.0) {
		t.Fatalf("Variance = %g", Variance(xs))
	}
	if !almost(Stddev(xs), math.Sqrt(32.0/7.0)) {
		t.Fatalf("Stddev = %g", Stddev(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Fatalf("single-sample percentile = %g", got)
	}
	if got := Median([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Median = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { Percentile(nil, 50) },
		"negative": func() { Percentile([]float64{1}, -1) },
		"over100":  func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI95 of one sample != 0")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // alternating 0/1, stddev ≈ 0.5025
	}
	ci := CI95(xs)
	want := 1.96 * Stddev(xs) / 10
	if !almost(ci, want) {
		t.Fatalf("CI95 = %g, want %g", ci, want)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("Summarize(nil) not zero")
	}
	xs := []float64{5, 1, 3, 2, 4}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almost(s.Mean, 3) || !almost(s.P50, 3) {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestRelChange(t *testing.T) {
	if !almost(RelChange(100, 119), 0.19) {
		t.Fatal("RelChange wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RelChange(0, x) did not panic")
		}
	}()
	RelChange(0, 1)
}

// Property: percentile is monotone in p and bounded by min/max.
func TestProperty_PercentileMonotone(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		s := Summarize(xs)
		return pa <= pb+1e-9 && pa >= s.Min-1e-9 && pb <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestProperty_MeanBounded(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize, which sorts one copy of the sample, returns bit for
// bit what Percentile (a sorted copy per call) and the moment functions
// return — on samples of length 1, 2 and more, with duplicates, both zeros,
// and magnitudes from 1e-300 to 1e300.
func TestProperty_SummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	value := func(pool []float64) float64 {
		switch rng.IntN(6) {
		case 0:
			return math.Copysign(0, float64(rng.IntN(2)*2-1)) // +0 or -0
		case 1:
			if len(pool) > 0 {
				return pool[rng.IntN(len(pool))] // a duplicate
			}
		case 2:
			return float64(rng.IntN(5)) // small integers repeat often
		}
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(601)-300))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 3000; trial++ {
		n := 1 + trial%3
		if trial >= 300 {
			n = 1 + rng.IntN(200)
		}
		xs := make([]float64, 0, n)
		for range n {
			xs = append(xs, value(xs))
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		want := Summary{
			N: n, Mean: Mean(xs), Stddev: Stddev(xs), CI95: CI95(xs), Min: lo, Max: hi,
			P50: Percentile(xs, 50), P90: Percentile(xs, 90), P95: Percentile(xs, 95), P99: Percentile(xs, 99),
		}
		got := []float64{s.Mean, s.Stddev, s.CI95, s.Min, s.Max, s.P50, s.P90, s.P95, s.P99}
		wantv := []float64{want.Mean, want.Stddev, want.CI95, want.Min, want.Max, want.P50, want.P90, want.P95, want.P99}
		for i := range got {
			if !same(got[i], wantv[i]) || s.N != n {
				t.Fatalf("trial %d: Summarize(%v) = %+v, want %+v", trial, orig, s, want)
			}
		}
		for i := range xs {
			if !same(xs[i], orig[i]) {
				t.Fatalf("trial %d: Summarize reordered its input", trial)
			}
		}
	}
}
