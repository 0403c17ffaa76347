package workload

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func testSpec() Spec {
	return Spec{
		Mix:          TrinityMix(),
		Jobs:         200,
		Arrival:      Poisson,
		Load:         0.8,
		Cluster:      cluster.Trinity(32),
		RuntimeScale: 1,
		Seed:         42,
	}
}

func TestMixesValid(t *testing.T) {
	for _, m := range Mixes() {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %q invalid: %v", m.Name, err)
		}
	}
}

func TestMixByName(t *testing.T) {
	m, err := MixByName("trinity")
	if err != nil || m.Name != "trinity" {
		t.Fatalf("MixByName(trinity) = %v, %v", m.Name, err)
	}
	if _, err := MixByName("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestMixValidation(t *testing.T) {
	good := TrinityMix()
	bad := []Mix{
		{Name: "empty"},
		{Name: "lenmismatch", Apps: good.Apps, Weights: []float64{1}},
		{Name: "negweight", Apps: good.Apps[:1], Weights: []float64{-1}},
		{Name: "zeroweight", Apps: good.Apps[:1], Weights: []float64{0}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %q accepted", m.Name)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	jobs, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if int(j.ID) != i+1 {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.Nodes > 32 {
			t.Fatalf("job %d requests %d nodes on a 32-node machine", i, j.Nodes)
		}
		if i > 0 && jobs[i].Submit < jobs[i-1].Submit {
			t.Fatalf("submissions not monotone at %d", i)
		}
		if j.TrueRuntime > j.ReqWalltime {
			t.Fatalf("job %d true runtime exceeds request", i)
		}
		if float64(j.ReqWalltime) > 3.0*float64(j.TrueRuntime)+1e-6 {
			t.Fatalf("job %d overestimation beyond bound: req=%v true=%v",
				i, j.ReqWalltime, j.TrueRuntime)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].TrueRuntime != b[i].TrueRuntime ||
			a[i].App.Name != b[i].App.Name || a[i].Nodes != b[i].Nodes {
			t.Fatalf("job %d differs across same-seed generations", i)
		}
	}
	spec := testSpec()
	spec.Seed = 43
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].TrueRuntime == c[i].TrueRuntime {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateBatchArrivals(t *testing.T) {
	spec := testSpec()
	spec.Arrival = Batch
	spec.Load = 0 // ignored for batch
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Submit != 0 {
			t.Fatalf("batch job submitted at %v", j.Submit)
		}
	}
}

func TestGenerateLoadCalibration(t *testing.T) {
	// Offered load ≈ total demand / (capacity × span).
	spec := testSpec()
	spec.Jobs = 3000
	spec.Load = 0.7
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	totalDemand := 0.0
	for _, j := range jobs {
		totalDemand += float64(j.Nodes) * float64(j.TrueRuntime)
	}
	span := float64(jobs[len(jobs)-1].Submit)
	offered := totalDemand / (float64(spec.Cluster.Nodes) * span)
	// Node counts are capped and runtimes floored, so allow a generous
	// tolerance; the point is the calibration is in the right regime.
	if math.Abs(offered-0.7) > 0.15 {
		t.Fatalf("offered load = %g, want ≈0.7", offered)
	}
}

func TestGenerateDailyCycle(t *testing.T) {
	spec := testSpec()
	spec.Arrival = DailyCycle
	spec.Jobs = 2000
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The cycle must modulate density: compare arrivals in the first vs
	// second half-day windows over several days.
	dayPeak, dayTrough := 0, 0
	for _, j := range jobs {
		phase := math.Mod(float64(j.Submit), 86400) / 86400
		if phase < 0.5 {
			dayPeak++
		} else {
			dayTrough++
		}
	}
	if dayPeak <= dayTrough {
		t.Fatalf("diurnal modulation missing: first-half=%d second-half=%d", dayPeak, dayTrough)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Jobs = 0 },
		func(s *Spec) { s.Load = 0 },
		func(s *Spec) { s.Load = -1 },
		func(s *Spec) { s.Cluster.Nodes = 0 },
		func(s *Spec) { s.OverestimateMin = 0.5 },
		func(s *Spec) { s.OverestimateMin = 3; s.OverestimateMax = 2 },
		func(s *Spec) { s.RuntimeScale = -1 },
		func(s *Spec) { s.Mix = Mix{Name: "empty"} },
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// Validate is the check every entry point's spec passes through, so it must
// refuse what is not a number and what is infinite: a NaN load used to pass
// and run, an infinite one to panic in the arrival process.
func TestSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"defaults", func(*Spec) {}, true},
		{"load nan", func(s *Spec) { s.Load = nan }, false},
		{"load +inf", func(s *Spec) { s.Load = inf }, false},
		{"load -inf", func(s *Spec) { s.Load = -inf }, false},
		{"load 0", func(s *Spec) { s.Load = 0 }, false},
		{"load 1e9", func(s *Spec) { s.Load = 1e9 }, true},
		{"load 1e308", func(s *Spec) { s.Load = 1e308 }, false},
		{"runtime scale 1e-320", func(s *Spec) { s.RuntimeScale = 1e-320 }, false},
		{"batch runtime scale 1e-320", func(s *Spec) { s.Arrival, s.RuntimeScale = Batch, 1e-320 }, true},
		{"batch ignores load", func(s *Spec) { s.Arrival, s.Load = Batch, nan }, true},
		{"daily cycle load +inf", func(s *Spec) { s.Arrival, s.Load = DailyCycle, inf }, false},
		{"runtime scale 0", func(s *Spec) { s.RuntimeScale = 0 }, false},
		{"runtime scale nan", func(s *Spec) { s.RuntimeScale = nan }, false},
		{"runtime scale +inf", func(s *Spec) { s.RuntimeScale = inf }, false},
		{"runtime scale -1", func(s *Spec) { s.RuntimeScale = -1 }, false},
		{"overestimate min nan", func(s *Spec) { s.OverestimateMin = nan }, false},
		{"overestimate max nan", func(s *Spec) { s.OverestimateMax = nan }, false},
		{"overestimate max +inf", func(s *Spec) { s.OverestimateMax = inf }, false},
		{"overestimate min +inf", func(s *Spec) { s.OverestimateMin, s.OverestimateMax = inf, inf }, false},
		{"overestimate min 0.5", func(s *Spec) { s.OverestimateMin = 0.5 }, false},
		{"overestimate exact", func(s *Spec) { s.OverestimateMin, s.OverestimateMax = 1, 1 }, true},
	}
	for _, c := range cases {
		s := testSpec()
		c.edit(&s)
		if err := s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

func TestRuntimeScale(t *testing.T) {
	spec := testSpec()
	spec.RuntimeScale = 0.01
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, j := range jobs {
		mean += float64(j.TrueRuntime)
	}
	mean /= float64(len(jobs))
	// Catalogue means are hours; at 1% scale (with the 60 s floor) the mean
	// must be minutes, not hours.
	if mean > 600 {
		t.Fatalf("scaled mean runtime = %g s, want ≪ 600", mean)
	}
}

func TestMeanJobDemandPositive(t *testing.T) {
	d := testSpec().MeanJobDemand()
	if d <= 0 {
		t.Fatalf("MeanJobDemand = %g", d)
	}
}

func TestMixSubsetsHaveExpectedCharacter(t *testing.T) {
	cpu := CPUBoundMix()
	for _, a := range cpu.Apps {
		if a.Stress[0] < 0.7 {
			t.Errorf("cpubound mix contains %s with cpu stress %g", a.Name, a.Stress[0])
		}
	}
	mem := MemBoundMix()
	for _, a := range mem.Apps {
		if a.Stress[1] < 0.8 {
			t.Errorf("membound mix contains %s with membw stress %g", a.Name, a.Stress[1])
		}
	}
}

func TestArrivalString(t *testing.T) {
	for a, want := range map[Arrival]string{Batch: "batch", Poisson: "poisson", DailyCycle: "dailycycle"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
		if got, err := arrivalByName(want); err != nil || got != a {
			t.Errorf("arrivalByName(%q) = %v, %v", want, got, err)
		}
	}
	if _, err := arrivalByName("arrival(7)"); err == nil {
		t.Error("unknown arrival accepted")
	}
}

func TestUserAssignment(t *testing.T) {
	spec := testSpec()
	spec.Users = 5
	spec.Jobs = 1000
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		if j.User == "" {
			t.Fatal("user modelling on but job has no user")
		}
		counts[j.User]++
	}
	if len(counts) != 5 {
		t.Fatalf("distinct users = %d, want 5", len(counts))
	}
	// Zipf skew: user01 submits the most, user05 the least.
	if counts["user01"] <= counts["user05"] {
		t.Fatalf("no Zipf skew: user01=%d user05=%d", counts["user01"], counts["user05"])
	}
}

func TestNoUsersByDefault(t *testing.T) {
	jobs, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.User != "" {
			t.Fatalf("user %q assigned with user modelling off", j.User)
		}
	}
}
