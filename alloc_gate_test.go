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
//
// The gate holds on both ways a sharing pass meets its world: unchanged
// since the last pass, which reuses the scratch's world as it is, and
// changed — one running job released and another allocated on its node
// between passes — which patches it. The changing world's Release and
// Allocate run inside the measured function and count against the ceiling.
func TestSchedulePassAllocations(t *testing.T) {
	ceilings := map[string]float64{
		"easy": 20, "conservative": 20, "sharefirstfit": 30, "sharebackfill": 30,
	}
	for _, changing := range []bool{false, true} {
		for _, name := range []string{"easy", "conservative", "sharefirstfit", "sharebackfill"} {
			ctx, err := exp.BuildOverheadContext(exp.Options{}, 200)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := sched.New(name, sched.DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			step := func() {}
			if changing {
				step = swapFirstRunning(t, ctx)
			}
			decisions := len(pol.Schedule(ctx)) // the first pass builds the scratch
			allocs := testing.AllocsPerRun(20, func() {
				step()
				pol.Schedule(ctx)
			})
			t.Logf("%s (world changing %v): %.0f allocations per pass for %d decisions", name, changing, allocs, decisions)
			if allocs > ceilings[name] {
				t.Errorf("%s (world changing %v): %.0f allocations per pass, ceiling %.0f", name, changing, allocs, ceilings[name])
			}
			if decisions == 0 {
				t.Errorf("%s: the overhead context plans nothing; the gate measures an empty pass", name)
			}
		}
	}
}

// swapFirstRunning returns a step that, each time it runs, releases the
// first running job of ctx — ctx.Running[0], or the stand-in it put there —
// and allocates the other of the two on the same node, keeping ctx.Running
// in ascending ID order in place.
func swapFirstRunning(t *testing.T, ctx *sched.Context) func() {
	t.Helper()
	first := ctx.Running[0]
	j := *first.Job
	j.ID = 1 << 20 // above every ID in the context
	other := &sched.RunningJob{Job: &j, NodeIDs: first.NodeIDs,
		NominalEnd: first.NominalEnd + 60, PredictedEnd: first.PredictedEnd + 60, Rate: 1}
	place := func(r *sched.RunningJob) cluster.Placement {
		return ctx.Cluster.LayerPlacement(r.Job.ID, r.NodeIDs, cluster.PrimaryLayer, r.Job.App.MemPerNodeMB)
	}
	placements := map[*sched.RunningJob]cluster.Placement{first: place(first), other: place(other)}
	return func() {
		out, in := first, other
		if ctx.Running[0] != first {
			out, in = other, first
		}
		if _, err := ctx.Cluster.Release(out.Job.ID); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Cluster.Allocate(placements[in]); err != nil {
			t.Fatal(err)
		}
		last := len(ctx.Running) - 1
		if in == other {
			copy(ctx.Running, ctx.Running[1:])
			ctx.Running[last] = other
		} else {
			copy(ctx.Running[1:], ctx.Running[:last])
			ctx.Running[0] = first
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
