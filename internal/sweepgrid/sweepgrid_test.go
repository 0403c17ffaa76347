package sweepgrid

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
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
		"huge load":  `{"policies":["easy"],"loads":[1e308],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
		"tiny scale": `{"policies":["easy"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":1e-320}`,
		"no nodes":   `{"policies":["easy"],"loads":[0.9],"seeds":1,"nodes":0,"jobs":10,"mix":"trinity","scale":0.05}`,
		"no jobs":    `{"policies":["easy"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":0,"mix":"trinity","scale":0.05}`,
	}
	for name, raw := range cases {
		if _, err := DecodeSpec([]byte(raw)); err == nil {
			t.Errorf("%s: DecodeSpec accepted %q", name, raw)
		}
	}
}

// JSON cannot carry an infinite scale, so the check is on the Spec itself: it
// is what cmd/sweep, DecodeSpec and simd's hello all go through.
func TestValidateRejectsNonFiniteScale(t *testing.T) {
	for _, scale := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		s := testSpec()
		s.Scale = scale
		if err := s.Validate(); err == nil {
			t.Errorf("scale %g accepted", scale)
		}
	}
}

// FuzzDecodeSpec holds the peer door: a spec from a dispatcher is either
// refused by DecodeSpec, or its first cell runs without panicking and twice
// to the same bytes. A load of 1e308 used to pass and panic in the arrival
// process.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"policies":["easy"],"loads":[1e308],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
		`{"policies":["sharebackfill"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":0.05}`,
		`{"policies":["easy"],"loads":[0.9],"seeds":1,"nodes":8,"jobs":10,"mix":"trinity","scale":1e-320}`,
		`{"policies":["easy"],"loads":[1e9],"seeds":1,"nodes":1,"jobs":3,"mix":"comm","scale":1e300}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSpec(b)
		if err != nil || s.Jobs > 100 || s.Nodes > 64 {
			return
		}
		first, err1 := s.RunCellBytes(0)
		again, err2 := s.RunCellBytes(0)
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(first, again) {
			t.Fatalf("cell 0 of %s: %q (%v), then %q (%v)", b, first, err1, again, err2)
		}
	})
}

// FuzzScenario holds the scenario door. A scenario built from fuzzed policy,
// workload and fault fields is refused by Validate or by its workload's
// Validate, or it runs, and a second run gives the same result. Every input
// is checked; for time, only a cheap one is run: at most 100 jobs on 64
// nodes, as in FuzzDecodeSpec; with node failures on, an MTBF of at least
// 3600 s, a repair time of at most a tenth of it and a shape of at least 0.5;
// with any faults on, at most 5 retries 3600 s apart, a runtime scale of at
// most 0.1 and an open-arrival load of at least 0.1. Outside that box faults
// are slow, not wrong: an MTBF of 10 s on 4 nodes draws 7.8 M failures for
// two jobs.
func FuzzScenario(f *testing.F) {
	// The first seed is the shape that panicked: Γ(1001) overflows, so the
	// Weibull scale was 0.
	f.Add("sharebackfill", uint8(0), uint8(1), 5, 4, 1.4, 0.05, uint64(42), 100000.0, 900.0, 0.001, 0.1, 3, 30.0, uint64(1))
	f.Add("easy", uint8(1), uint8(0), 20, 8, 0.0, 0.05, uint64(7), 0.0, 0.0, 0.0, 0.5, 1, 1e300, uint64(0))
	f.Add("sharefirstfit", uint8(2), uint8(2), 30, 16, 0.9, 0.02, uint64(3), 86400.0, 900.0, 1.5, 0.02, 0, 0.0, uint64(9))
	f.Fuzz(func(t *testing.T, policy string, mix, arrival uint8, jobs, nodes int, load, scale float64,
		seed uint64, mtbf, mttr, shape, crashProb float64, retries int, backoff float64, faultSeed uint64) {
		mixes := workload.Mixes()
		sc := Scenario{
			Workload: workload.Spec{
				Mix: mixes[int(mix)%len(mixes)], Jobs: jobs, Arrival: workload.Arrival(arrival % 3), Load: load,
				Cluster: cluster.Trinity(nodes), RuntimeScale: scale, Seed: seed,
			},
			Policy: policy,
			Share:  sched.DefaultShareConfig(),
			Faults: fault.Config{
				MTBF: mtbf, MTTR: mttr, Shape: shape, CrashProb: crashProb,
				MaxRetries: retries, Backoff: des.Duration(backoff), Seed: faultSeed,
			},
		}
		if sc.Validate() != nil || sc.Workload.Validate() != nil || jobs > 100 || nodes > 64 {
			return
		}
		nodeFailures := mtbf > 0 && !math.IsInf(mtbf, 1)
		if nodeFailures && (mtbf < 3600 || mttr > mtbf/10 || shape < 0.5) ||
			sc.Faults.Active() && (retries > 5 || backoff > 3600 || scale > 0.1 ||
				sc.Workload.Arrival != workload.Batch && load < 0.1) {
			return
		}
		first, err := runOutcome(sc)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		if again, err := runOutcome(sc); err != nil || again != first {
			t.Fatalf("%+v ran twice to different results (%v):\n%s\n%s", sc, err, first, again)
		}
	})
}

// runOutcome runs the scenario and renders its result, without the
// wall-clock pass timing, and each finished job's start and end.
func runOutcome(sc Scenario) (string, error) {
	r, jobs, err := sc.Run()
	if err != nil {
		return "", err
	}
	r.DecisionNanos = stats.Summary{}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", r)
	for _, j := range jobs {
		fmt.Fprintf(&b, "%d %v %v\n", j.ID, j.StartTime(), j.EndTime())
	}
	return b.String(), nil
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
// the engine built inline with the default share configuration and
// interference model. It is the reference the runner is held to, byte for
// byte.
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
	pol, err := sched.New(c.Policy, sched.DefaultShareConfig())
	if err != nil {
		return nil, err
	}
	e := sim.New(sim.Config{Cluster: machine, Policy: pol, Inter: interference.Default()})
	if err := e.SubmitAll(generated); err != nil {
		return nil, err
	}
	e.RunAll()
	r := e.Result()
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

// Every cell of every policy must produce the bytes the inline engine did.
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
		Faults: fault.Config{MTBF: 3600, MTTR: 0, Shape: 1},
	}
	if _, _, err := sc.Run(); err == nil {
		t.Fatal("MTBF without MTTR accepted")
	}
}

// machineScenario is a Scenario with only the machine set: what callers that
// submit their own jobs pass to Engine.
func machineScenario(nodes int, policy string) Scenario {
	return Scenario{
		Workload: workload.Spec{Cluster: cluster.Trinity(nodes)},
		Policy:   policy,
		Share:    sched.DefaultShareConfig(),
	}
}

// Every configuration Engine is handed is checked before an engine exists:
// each of these is an error, not a panic inside sim.New.
func TestScenarioEngineRejectsInvalid(t *testing.T) {
	cases := map[string]func(*Scenario){
		"invalid machine": func(sc *Scenario) {
			sc.Workload.Cluster = cluster.Config{Nodes: -1, CoresPerNode: 1, ThreadsPerCore: 1, MemoryPerNodeMB: 1}
		},
		"unknown policy": func(sc *Scenario) { sc.Policy = "nope" },
		"invalid faults": func(sc *Scenario) {
			sc.Faults = fault.Config{MTBF: 3600, MTTR: 0, Shape: 1}
		},
		"fault shape zero": func(sc *Scenario) {
			sc.Faults = fault.Config{MTBF: 3600, MTTR: 600}
		},
		"negative retries": func(sc *Scenario) { sc.Faults = fault.Config{MaxRetries: -1} },
		"invalid topology": func(sc *Scenario) {
			sc.Topo = &topology.Topology{Groups: 0, NodesPerGroup: 8}
		},
		"locality without topology": func(sc *Scenario) { sc.LocalityAware = true },
		"malformed measured pair": func(sc *Scenario) {
			sc.MeasuredPairs = []interference.MeasuredPair{{A: "", B: "x", RateA: 1, RateB: 1}}
		},
	}
	for name, mutate := range cases {
		sc := machineScenario(4, "sharebackfill")
		mutate(&sc)
		if e, err := sc.Engine(); err == nil {
			t.Errorf("%s: Engine returned %v, nil", name, e)
		}
	}
}

// submit enqueues one job built from catalogue app name on e.
func submit(t *testing.T, e *sim.Engine, id cluster.JobID, name string, nodes int, wall, runtime des.Duration, at des.Time) {
	t.Helper()
	a, err := app.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(&job.Job{ID: id, Name: name, App: a, Nodes: nodes,
		ReqWalltime: wall, TrueRuntime: runtime, Submit: at}); err != nil {
		t.Fatal(err)
	}
}

// Measured pairs, topology with locality, and strict limits each reach the
// engine: each changes what the same jobs do.
func TestScenarioEngineWiresOptions(t *testing.T) {
	// Two whole-machine jobs that share nodes under sharebackfill. Measured
	// rates far below the analytic ones stretch the run.
	corun := func(sc Scenario) *sim.Engine {
		e, err := sc.Engine()
		if err != nil {
			t.Fatal(err)
		}
		submit(t, e, 1, "minife", 4, 8*des.Hour, 2*des.Hour, 0)
		submit(t, e, 2, "minimd", 4, 8*des.Hour, 2*des.Hour, des.Minute)
		e.RunAll()
		return e
	}
	analytic := corun(machineScenario(4, "sharebackfill"))
	sc := machineScenario(4, "sharebackfill")
	sc.MeasuredPairs = []interference.MeasuredPair{{A: "minife", B: "minimd", RateA: 0.35, RateB: 0.40}}
	if measured := corun(sc); !(measured.Now() > analytic.Now()) {
		t.Errorf("measured pairs: run ends at %v, analytic at %v", measured.Now(), analytic.Now())
	}

	// A job whose walltime equals its runtime overruns once a co-runner
	// slows it: only strict limits kill it.
	strictRun := func(strict bool) int {
		sc := machineScenario(4, "sharebackfill")
		sc.StrictLimits = strict
		e, err := sc.Engine()
		if err != nil {
			t.Fatal(err)
		}
		submit(t, e, 1, "minife", 4, des.Hour, des.Hour, 0)
		submit(t, e, 2, "minimd", 4, 8*des.Hour, 2*des.Hour, des.Minute)
		e.RunAll()
		return len(e.Killed())
	}
	if lax, strict := strictRun(false), strictRun(true); lax != 0 || strict != 1 {
		t.Errorf("killed: %d without strict limits, %d with; want 0 and 1", lax, strict)
	}

	// Sixteen nodes in two leaves of eight. With nodes 0-5 busy, a two-node
	// job lands on the lowest free nodes (6, 7) unless placement is
	// locality-aware, which prefers the emptier leaf (8, 9).
	placed := func(local bool) []int {
		sc := machineScenario(16, "easy")
		if local {
			topo := topology.Default(16)
			sc.Topo, sc.LocalityAware = &topo, true
		}
		e, err := sc.Engine()
		if err != nil {
			t.Fatal(err)
		}
		submit(t, e, 1, "gtc", 6, des.Hour, des.Hour, 0)
		submit(t, e, 2, "gtc", 2, des.Hour, des.Hour, 0)
		e.Run(1)
		for _, r := range e.Running() {
			if r.Job.ID == 2 {
				return r.NodeIDs
			}
		}
		t.Fatal("job 2 not running")
		return nil
	}
	if got := placed(false); !reflect.DeepEqual(got, []int{6, 7}) {
		t.Errorf("default placement = %v, want [6 7]", got)
	}
	if got := placed(true); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Errorf("locality-aware placement = %v, want [8 9]", got)
	}
}
