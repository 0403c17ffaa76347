package interference

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/app"
)

func namedLoads(names ...string) []Load {
	out := make([]Load, len(names))
	for i, n := range names {
		m, err := app.ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = Load{App: m.Name, Stress: m.Stress}
	}
	return out
}

func TestSetMeasuredOverridesPairs(t *testing.T) {
	m := Default()
	if len(m.measured) > 0 {
		t.Fatal("fresh model reports measurements")
	}
	if err := m.SetMeasured([]MeasuredPair{
		{A: "minife", B: "minimd", RateA: 0.61, RateB: 0.62},
	}); err != nil {
		t.Fatal(err)
	}
	if len(m.measured) == 0 {
		t.Fatal("measurements not installed")
	}
	rates := m.NamedRates(namedLoads("minife", "minimd"))
	if rates[0] != 0.61 || rates[1] != 0.62 {
		t.Fatalf("measured rates not used: %v", rates)
	}
	// Reversed order swaps the rates.
	rates = m.NamedRates(namedLoads("minimd", "minife"))
	if rates[0] != 0.62 || rates[1] != 0.61 {
		t.Fatalf("reversed measured rates wrong: %v", rates)
	}
	// Unmeasured pairs fall back to the analytic model.
	analytic := m.NodeRates([]app.StressVector{
		namedLoads("amg")[0].Stress, namedLoads("umt")[0].Stress,
	})
	named := m.NamedRates(namedLoads("amg", "umt"))
	if named[0] != analytic[0] || named[1] != analytic[1] {
		t.Fatalf("fallback mismatch: %v vs %v", named, analytic)
	}
	// Three-way co-locations always use the analytic model.
	three := m.NamedRates(namedLoads("minife", "minimd", "amg"))
	if three[0] == 0.61 {
		t.Fatal("measured pair applied to a three-way co-location")
	}
	// Clearing restores pure analytic behaviour.
	if err := m.SetMeasured(nil); err != nil {
		t.Fatal(err)
	}
	if len(m.measured) > 0 {
		t.Fatal("measurements not cleared")
	}
}

func TestSetMeasuredValidation(t *testing.T) {
	m := Default()
	bad := [][]MeasuredPair{
		{{A: "", B: "x", RateA: 0.5, RateB: 0.5}},
		{{A: "a", B: "b", RateA: 0, RateB: 0.5}},
		{{A: "a", B: "b", RateA: 0.5, RateB: 1.5}},
	}
	for i, pairs := range bad {
		if err := m.SetMeasured(pairs); err == nil {
			t.Errorf("bad measurement %d accepted", i)
		}
	}
}

func TestCoRunCSVRoundTrip(t *testing.T) {
	m := Default()
	models := app.Catalogue()[:4]
	var buf bytes.Buffer
	if err := m.ExportCoRunCSV(&buf, models); err != nil {
		t.Fatal(err)
	}
	pairs, err := ParseCoRunCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 4 apps → C(4,2)+4 = 10 ordered-unique pairs.
	if len(pairs) != 10 {
		t.Fatalf("parsed %d pairs, want 10", len(pairs))
	}
	// Installing the exported analytic matrix must reproduce the analytic
	// rates (up to the 4-decimal CSV rounding).
	if err := m.SetMeasured(pairs); err != nil {
		t.Fatal(err)
	}
	a, b := models[0], models[1]
	ra, rb := m.PairRates(a.Stress, b.Stress)
	named := m.NamedRates([]Load{{App: a.Name, Stress: a.Stress}, {App: b.Name, Stress: b.Stress}})
	if diff := named[0] - ra; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("exported matrix diverges from analytic: %g vs %g", named[0], ra)
	}
	_ = rb
}

func TestParseCoRunCSVErrors(t *testing.T) {
	cases := map[string]string{
		"wrong fields": "a,b,0.5\n",
		"bad rate":     "h1,h2,x,y\na,b,zz,0.5\n",
		"out of range": "appA,appB,rateA,rateB\na,b,1.5,0.5\n",
	}
	for name, input := range cases {
		if _, err := ParseCoRunCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Header and comments are tolerated.
	pairs, err := ParseCoRunCSV(strings.NewReader(
		"appA,appB,rateA,rateB\n# comment\na,b,0.5,0.6\n"))
	if err != nil || len(pairs) != 1 {
		t.Fatalf("header/comment handling: %v, %d pairs", err, len(pairs))
	}
}

// End-to-end: a pessimistic measured matrix must change scheduling — with
// every pair measured at the minimum rate, sharing buys nothing and the
// co-allocation guard plans accordingly.
func TestMeasuredMatrixReachesScheduling(t *testing.T) {
	m := Default()
	var pairs []MeasuredPair
	for _, a := range app.Names() {
		for _, b := range app.Names() {
			pairs = append(pairs, MeasuredPair{A: a, B: b, RateA: 0.10, RateB: 0.10})
		}
	}
	if err := m.SetMeasured(pairs); err != nil {
		t.Fatal(err)
	}
	rates := m.NamedRates(namedLoads("minife", "minimd"))
	if rates[0] != 0.10 || rates[1] != 0.10 {
		t.Fatalf("pessimistic matrix not honored: %v", rates)
	}
}
