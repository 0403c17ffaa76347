package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/des"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{MTBF: -1},
		{MTBF: 100, MTTR: 0},
		{MTBF: 100, MTTR: -5},
		{Shape: -1},
		{CrashProb: -0.1},
		{CrashProb: 1.5},
		{MTBF: math.NaN()},
		{CrashProb: math.NaN()},
		{MTBF: 100, MTTR: math.Inf(1), Shape: 1},
		{MTBF: 100, MTTR: 10}, // zero shape is not exponential
		{MTBF: 100, MTTR: 10, Shape: math.Inf(1)},
		{MTBF: 100, MTTR: 10, Shape: math.NaN()},
		{MaxRetries: -1},
		{Backoff: -1},
		{Backoff: des.Duration(math.NaN())},
		{Backoff: des.Duration(math.Inf(1))},
		{Backoff: 1e300},
		{Backoff: 1e308},
		{MTBF: 100000, MTTR: 900, Shape: 0.001}, // Γ(1001) overflows: a zero Weibull scale
		{MTBF: 100000, MTTR: 900, Shape: 0.005},
		{MTBF: 100, MTTR: 1e308, Shape: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	good := []Config{
		{},
		Defaults(),
		{MTBF: 86400, MTTR: 900, Shape: 1},
		{MTBF: math.Inf(1)}, // +Inf MTBF disables node failures
		{CrashProb: 1},      // shape and repair time matter only to node failures
		{MTBF: 100000, MTTR: MaxDelay, Shape: 0.006, Backoff: MaxDelay},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
}

func TestActive(t *testing.T) {
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{}, false},
		{Defaults(), false},
		{Config{MTBF: 100, MTTR: 10, Shape: 1}, true},
		{Config{CrashProb: 0.5}, true},
		{Config{MTBF: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Active(); got != tc.want {
			t.Errorf("Active(%+v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestDefaults(t *testing.T) {
	d := Defaults()
	if d.MaxRetries != 3 || d.Backoff != 30 || d.Shape != 1 || d.Seed != 1 {
		t.Fatalf("Defaults() = %+v", d)
	}
}

func TestBackoffFor(t *testing.T) {
	for retry, want := range map[int]des.Duration{1: 30, 2: 60, 3: 120, 0: 0, -1: 0} {
		if got := BackoffFor(30, retry); got != want {
			t.Errorf("BackoffFor(30, %d) = %v, want %v", retry, got, want)
		}
	}
	if BackoffFor(0, 5) != 0 {
		t.Error("zero base must yield no hold")
	}
	// The doubling cap keeps huge retry counts finite and monotone.
	if BackoffFor(30, 1000) != BackoffFor(30, 21) {
		t.Error("backoff not capped")
	}
}

func TestCrashDrawDeterministicAndIndependent(t *testing.T) {
	cfg := Config{CrashProb: 0.5, Seed: 9}
	a, err := NewInjector(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for id := int64(1); id <= 200; id++ {
		for attempt := 0; attempt < 3; attempt++ {
			fa, ca := a.CrashDraw(id, attempt)
			fb, cb := b.CrashDraw(id, attempt)
			if fa != fb || ca != cb {
				t.Fatalf("draw (%d,%d) differs across injectors", id, attempt)
			}
			if ca {
				crashes++
				if fa <= 0 || fa > 1 {
					t.Fatalf("crash fraction %g outside (0,1]", fa)
				}
			}
		}
	}
	// 600 draws at p=0.5: a gross deviation means the stream is broken.
	if crashes < 200 || crashes > 400 {
		t.Fatalf("crashes = %d of 600 at p=0.5", crashes)
	}
	// Disabled configurations never crash and draw nothing.
	off, err := NewInjector(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, c := off.CrashDraw(1, 0); c {
		t.Fatal("disabled injector crashed a job")
	}
}

func TestInjectorTraceDeterminism(t *testing.T) {
	cfg := Config{MTBF: 500, MTTR: 50, Shape: 1, Seed: 4}
	run := func() []Event {
		in, err := NewInjector(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := des.NewSimulator()
		work := 30 // stop scheduling new failures after a while
		in.Install(s,
			func(int) { work-- },
			func(int) {},
			func() bool { return work > 0 })
		s.RunAll()
		return in.Trace()
	}
	t1, t2 := run(), run()
	if len(t1) == 0 {
		t.Fatal("no failure events at MTBF 500")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("traces differ:\n%v\n%v", t1, t2)
	}
	// Every failure is eventually repaired, in order, per node.
	downs := map[int]bool{}
	for _, e := range t1 {
		switch e.Kind {
		case NodeFail:
			if downs[e.Node] {
				t.Fatalf("node %d failed twice without repair", e.Node)
			}
			downs[e.Node] = true
		case NodeRepair:
			if !downs[e.Node] {
				t.Fatalf("node %d repaired while up", e.Node)
			}
			downs[e.Node] = false
		}
	}
	for ni, down := range downs {
		if down {
			t.Fatalf("node %d left down at end of run", ni)
		}
	}
}

func TestWeibullShapePreservesMean(t *testing.T) {
	// The Weibull scale is chosen so the mean TTF equals MTBF for any shape.
	for _, shape := range []float64{0.7, 1, 2} {
		cfg := Config{MTBF: 1000, MTTR: 1, Shape: shape, Seed: 11}
		in, err := NewInjector(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum, n := 0.0, 20000
		for i := 0; i < n; i++ {
			sum += in.nodes[0].Weibull(cfg.Shape, cfg.MTBF/math.Gamma(1+1/cfg.Shape))
		}
		mean := sum / float64(n)
		if mean < 950 || mean > 1050 {
			t.Errorf("shape %g: sample mean TTF = %.0f, want ≈1000", shape, mean)
		}
	}
}
