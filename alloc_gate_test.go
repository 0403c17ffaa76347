//go:build !race

package repro

// The allocation gate of the scheduling pass. The counts below are exact for
// a given toolchain — nothing here is timed — so the gate cannot flake; the
// race detector adds allocations of its own, hence the build tag (CI runs
// this file in a non-race step of the sweep job).

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A pass over a Context that has planned before allocates only what it
// returns: the decision slice as it grows and one node list per decision.
// The ceilings are those of `sched.decision_allocs.*` in the benchmark, on
// the same F3 overhead context (200 queued jobs, half the machine hosting):
// before the planner kept a scratch they read 99 / 105 / 350 / 453.
func TestSchedulePassAllocations(t *testing.T) {
	ceilings := map[string]float64{
		"easy": 20, "conservative": 20, "sharefirstfit": 30, "sharebackfill": 30,
	}
	for _, name := range []string{"easy", "conservative", "sharefirstfit", "sharebackfill"} {
		ctx, err := exp.BuildOverheadContext(exp.Options{}, 200)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := sched.New(name, sched.DefaultShareConfig())
		if err != nil {
			t.Fatal(err)
		}
		decisions := len(pol.Schedule(ctx)) // the first pass builds the scratch
		allocs := testing.AllocsPerRun(20, func() { pol.Schedule(ctx) })
		t.Logf("%s: %.0f allocations per pass for %d decisions", name, allocs, decisions)
		if allocs > ceilings[name] {
			t.Errorf("%s: %.0f allocations per pass, ceiling %.0f", name, allocs, ceilings[name])
		}
		if decisions == 0 {
			t.Errorf("%s: the overhead context plans nothing; the gate measures an empty pass", name)
		}
	}
}

// A whole run allocates per job, not per pass: 400 Trinity-mix jobs at load
// 1.4 under sharebackfill cost 1 170 allocations per job before the engine
// kept its planner scratch and its running-set indexes.
func TestRunAllocationsPerJob(t *testing.T) {
	const jobs, ceiling = 400, 60.0
	machine := cluster.Trinity(32)
	run := func() {
		stream, err := workload.Generate(workload.Spec{
			Mix: workload.TrinityMix(), Jobs: jobs, Arrival: workload.Poisson,
			Load: 1.4, Cluster: machine, RuntimeScale: 0.05, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := sched.New("sharebackfill", sched.DefaultShareConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := sim.New(sim.Config{Cluster: machine, Policy: pol})
		if err := e.SubmitAll(stream); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		if got := len(e.Finished()); got != jobs {
			t.Fatalf("finished %d of %d jobs", got, jobs)
		}
	}
	perJob := testing.AllocsPerRun(5, run) / jobs
	t.Logf("%.1f allocations per job (generation, engine and run)", perJob)
	if perJob > ceiling {
		t.Errorf("%.1f allocations per simulated job, ceiling %.0f", perJob, ceiling)
	}
}
