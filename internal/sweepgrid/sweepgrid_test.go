package sweepgrid

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testSpec() Spec {
	return Spec{
		Policies: []string{"easy", "sharebackfill"},
		Loads:    []float64{0.9, 1.4},
		Seeds:    2,
		Nodes:    16,
		Jobs:     60,
		Mix:      "trinity",
		Scale:    0.05,
	}
}

// CellAt must enumerate exactly the canonical policy-major loop nest.
func TestCellEnumerationOrder(t *testing.T) {
	s := testSpec()
	var want []Cell
	for _, p := range s.Policies {
		for _, l := range s.Loads {
			for sd := 0; sd < s.Seeds; sd++ {
				want = append(want, Cell{Policy: p, Load: l, Seed: uint64(42 + sd)})
			}
		}
	}
	if s.NumCells() != len(want) {
		t.Fatalf("NumCells = %d, want %d", s.NumCells(), len(want))
	}
	for i, w := range want {
		if got := s.CellAt(i); got != w {
			t.Fatalf("CellAt(%d) = %+v, want %+v", i, got, w)
		}
	}
}

// EncodeRow must match csv.Writer byte for byte — that equality is the whole
// point of the helper.
func TestEncodeRowMatchesCSVWriter(t *testing.T) {
	rows := [][]string{
		Header(),
		{"easy", "0.9", "42", "60", "123.4", "0.9000", "0.8000", "0.7000", "0.1000", "1.0", "2.0", "1.500", "1.2000"},
		{"with,comma", `with"quote`, "plain"},
	}
	for _, row := range rows {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got, err := EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("EncodeRow(%q) = %q, want %q", row, got, buf.Bytes())
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := testSpec()
	b, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("roundtrip = %+v, want %+v", got, s)
	}
}

func TestDecodeSpecRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad json":   `{`,
		"no seeds":   `{"policies":["easy"],"loads":[0.9],"seeds":0,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
		"bad mix":    `{"policies":["easy"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":10,"mix":"nope","scale":0.05}`,
		"zero load":  `{"policies":["easy"],"loads":[0],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
		"bad policy": `{"policies":["easy","nope"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
	}
	for name, raw := range cases {
		if _, err := DecodeSpec([]byte(raw)); err == nil {
			t.Errorf("%s: DecodeSpec accepted %q", name, raw)
		}
	}
}

// A cell is a pure function of (spec, index): two executions must produce
// identical bytes — the invariant first-result-wins dedup relies on.
func TestRunCellDeterministic(t *testing.T) {
	s := testSpec()
	a, err := s.RunCellBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunCellBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("cell 3 not deterministic:\n%q\n%q", a, b)
	}
	if len(bytes.TrimSpace(a)) == 0 {
		t.Fatal("cell produced empty row")
	}
}

// refRunCell is RunCell as it was before cells went through Scenario.Run:
// the library façade builds the engine. It is the reference the runner is
// held to, byte for byte.
func refRunCell(s Spec, i int) ([]byte, error) {
	c := s.CellAt(i)
	mix, err := workload.MixByName(s.Mix)
	if err != nil {
		return nil, err
	}
	machine := cluster.Trinity(s.Nodes)
	generated, err := workload.Generate(workload.Spec{
		Mix: mix, Jobs: s.Jobs, Arrival: workload.Poisson, Load: c.Load,
		Cluster: machine, RuntimeScale: s.Scale, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.Config{Machine: machine, Policy: c.Policy})
	if err != nil {
		return nil, err
	}
	if err := sys.SubmitJobs(generated); err != nil {
		return nil, err
	}
	sys.Run()
	r := sys.Metrics()
	return EncodeRow([]string{
		c.Policy,
		fmt.Sprintf("%g", c.Load),
		fmt.Sprintf("%d", c.Seed),
		fmt.Sprintf("%d", r.Finished),
		fmt.Sprintf("%.1f", float64(r.Makespan)),
		fmt.Sprintf("%.4f", r.CompEfficiency),
		fmt.Sprintf("%.4f", r.SchedEfficiency),
		fmt.Sprintf("%.4f", r.Utilization),
		fmt.Sprintf("%.4f", r.SharedFraction),
		fmt.Sprintf("%.1f", r.Wait.Mean),
		fmt.Sprintf("%.1f", r.Wait.P95),
		fmt.Sprintf("%.3f", r.Slowdown.Mean),
		fmt.Sprintf("%.4f", r.Stretch.Mean),
	})
}

// Every cell of every policy must produce the bytes the façade path did.
func TestRunCellMatchesCoreReference(t *testing.T) {
	s := testSpec()
	s.Policies = sched.Names()
	s.Loads = []float64{0.6, 1.4}
	for i := 0; i < s.NumCells(); i++ {
		got, err := s.RunCellBytes(i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want, err := refRunCell(s, i)
		if err != nil {
			t.Fatalf("reference cell %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d (%+v):\n got %q\nwant %q", i, s.CellAt(i), got, want)
		}
	}
}

// A fault configuration the injector would refuse is an error, not a panic
// inside the engine.
func TestScenarioRunRejectsBadFaults(t *testing.T) {
	sc := Scenario{
		Workload: workload.Spec{
			Mix: workload.TrinityMix(), Jobs: 10, Arrival: workload.Poisson, Load: 1,
			Cluster: cluster.Trinity(8), RuntimeScale: 0.05, Seed: 42,
		},
		Policy: "easy",
		Faults: &fault.Config{Enabled: true, MTBF: 3600, MTTR: 0},
	}
	if _, _, err := sc.Run(); err == nil {
		t.Fatal("MTBF without MTTR accepted")
	}
}
