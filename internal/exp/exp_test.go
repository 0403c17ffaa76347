package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fastOpts keeps experiment tests quick: one seed, small machine, short jobs.
func fastOpts() Options {
	return Options{Seeds: []uint64{7}, Nodes: 8, Jobs: 60, RuntimeScale: 0.01}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "T3", "A1", "A2", "A3", "A4", "E1", "F8", "F9", "F10", "F11", "F12", "T4"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.Name == "" || e.Run == nil {
			t.Errorf("experiment %s is underspecified: %+v", e.ID, e)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("F1")
	if err != nil || e.ID != "F1" {
		t.Fatalf("ByID(F1) = %v, %v", e.ID, err)
	}
	if _, err := ByID("F99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(fastOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if tbl.Title == "" || len(tbl.Columns) == 0 {
				t.Fatalf("%s table underspecified", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s row %d has %d cells, header has %d",
						e.ID, i, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

func TestT1RowsMatchCatalogue(t *testing.T) {
	tbl, err := runT1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(app.Catalogue()) {
		t.Fatalf("T1 rows = %d, want %d", len(tbl.Rows), len(app.Catalogue()))
	}
}

func TestT2IsSquare(t *testing.T) {
	tbl, err := runT2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := len(app.Catalogue())
	if len(tbl.Rows) != n || len(tbl.Columns) != n+1 {
		t.Fatalf("T2 shape = %dx%d, want %dx%d", len(tbl.Rows), len(tbl.Columns), n, n+1)
	}
	// All matrix cells must be rates in (0, 1].
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("non-numeric matrix cell %q", cell)
			}
			if v <= 0 || v > 1 {
				t.Fatalf("rate %g outside (0,1]", v)
			}
		}
	}
}

func TestF1SharingWins(t *testing.T) {
	// Even at test scale the ordering must hold: sharing CE > exclusive CE.
	o := Options{Seeds: []uint64{7, 8}, Nodes: 16, Jobs: 120, RuntimeScale: 0.02}
	tbl, err := runF1(o)
	if err != nil {
		t.Fatal(err)
	}
	ce := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("CE cell %q", row[1])
		}
		ce[row[0]] = v
	}
	if ce["easy"] != 1.0 {
		t.Fatalf("exclusive CE = %g, want exactly 1", ce["easy"])
	}
	if ce["sharebackfill"] <= ce["easy"] {
		t.Fatalf("sharebackfill CE %g not above easy %g", ce["sharebackfill"], ce["easy"])
	}
	if ce["sharefirstfit"] <= ce["easy"] {
		t.Fatalf("sharefirstfit CE %g not above easy %g", ce["sharefirstfit"], ce["easy"])
	}
}

func TestF2SharingShortensMakespan(t *testing.T) {
	o := Options{Seeds: []uint64{7, 8}, Nodes: 16, Jobs: 120, RuntimeScale: 0.02}
	tbl, err := runF2(o)
	if err != nil {
		t.Fatal(err)
	}
	makespan := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("makespan cell %q", row[3])
		}
		makespan[row[0]] = v
	}
	if makespan["sharebackfill"] >= makespan["easy"] {
		t.Fatalf("sharing makespan %g not below exclusive %g",
			makespan["sharebackfill"], makespan["easy"])
	}
}

func TestF7SMTOffMeansNoSharing(t *testing.T) {
	tbl, err := runF7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// First row is threads/core = 1: shared fraction must be 0 and gain 0.
	row := tbl.Rows[0]
	if row[0] != "1" {
		t.Fatalf("first F7 row is %v, want SMT-off variant", row)
	}
	if row[5] != "0.000" {
		t.Fatalf("SMT-off shared fraction = %s, want 0.000", row[5])
	}
	if !strings.HasPrefix(row[4], "+0.0%") && !strings.HasPrefix(row[4], "-0.0%") {
		t.Fatalf("SMT-off CE gain = %s, want ±0.0%%", row[4])
	}
}

// Without SMT there is no free layer to share, so a sharing policy has no
// host slot (its witness takes no node from running jobs) and must place
// every job where its exclusive ancestor does: over 20 seeds of the F1
// workload at half size (16 nodes, 150 jobs) on single-thread cores, at F1's
// load and under overload, the History() of each sharing policy is the
// ancestor's, record for record. With SMT on, the same pairs must part ways,
// or the comparison shows nothing.
func TestSMTOffSharingMatchesExclusive(t *testing.T) {
	o := Options{Nodes: 16, Jobs: 150}.withDefaults()
	history := func(policy string, seed uint64, tpc int, load float64) string {
		t.Helper()
		sc := canonicalScenario(o, policy, sched.DefaultShareConfig())
		sc.Workload.Seed, sc.Workload.Load = seed, load
		sc.Workload.Cluster.ThreadsPerCore = tpc
		e, err := sc.Engine()
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := workload.Generate(sc.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		h := e.History()
		if len(h) == 0 {
			t.Fatalf("%s seed %d: no job completed", policy, seed)
		}
		return fmt.Sprintf("%+v", h)
	}
	for _, pair := range [][2]string{{"sharebackfill", "easy"}, {"sharefirstfit", "firstfit"}, {"shareconservative", "conservative"}} {
		share, excl := pair[0], pair[1]
		differs := 0
		for seed := uint64(1); seed <= 20; seed++ {
			for _, load := range []float64{1.4, 3} {
				if got, want := history(share, seed, 1, load), history(excl, seed, 1, load); got != want {
					t.Fatalf("SMT off, seed %d, load %g: %s placed\n%s\n%s placed\n%s", seed, load, share, got, excl, want)
				}
			}
			if history(share, seed, 2, 1.4) != history(excl, seed, 2, 1.4) {
				differs++
			}
		}
		if differs == 0 {
			t.Fatalf("with SMT on, %s placed every seed as %s did", share, excl)
		}
	}
}

func TestF12FaultFreeRowIsClean(t *testing.T) {
	o := Options{Seeds: []uint64{7, 8}, Nodes: 16, Jobs: 120, RuntimeScale: 0.02, FaultCrashProb: 0.02}
	tbl, err := runF12(o)
	if err != nil {
		t.Fatal(err)
	}
	goodput := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("goodput cell %q", row[1])
		}
		goodput[row[0]] = v
	}
	// Without faults nothing is lost: goodput is exactly 1 for both policies.
	for _, key := range []string{"easy/none", "sharebackfill/none"} {
		if goodput[key] != 1.0 {
			t.Fatalf("%s goodput = %g, want exactly 1", key, goodput[key])
		}
	}
	// Under the harshest level both policies lose real work.
	for _, key := range []string{"easy/2h", "sharebackfill/2h"} {
		if g := goodput[key]; g <= 0 || g >= 1 {
			t.Fatalf("%s goodput = %g, want in (0,1)", key, g)
		}
	}
}

func TestScenarioRunnerRejectsBadPolicy(t *testing.T) {
	o := fastOpts()
	sc := canonicalScenario(o, "nope", sched.DefaultShareConfig())
	if _, _, err := sc.Run(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestOverheadContext(t *testing.T) {
	ctx, err := BuildOverheadContext(fastOpts(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Queue) != 25 {
		t.Fatalf("queue depth = %d", len(ctx.Queue))
	}
	if len(ctx.Running) != ctx.Cluster.Size()/2 {
		t.Fatalf("running = %d, want half the machine", len(ctx.Running))
	}
	// The context must be reusable: scheduling twice must not mutate it.
	pol, err := sched.New("sharebackfill", sched.DefaultShareConfig())
	if err != nil {
		t.Fatal(err)
	}
	d1 := pol.Schedule(ctx)
	d2 := pol.Schedule(ctx)
	if len(d1) != len(d2) {
		t.Fatalf("Schedule not repeatable: %d vs %d decisions", len(d1), len(d2))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Seeds) == 0 || o.Nodes == 0 || o.Jobs == 0 || o.RuntimeScale == 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
}
