package sim

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestNoLookahead pins causality: a decision depends on nothing that has
// not happened yet. For every policy and seed, and for three cut times T
// drawn inside the arrival span, removing every job that arrives at or after
// T moves no job that started before T — not its start instant, not its
// nodes. 7 policies × 8 seeds, event-driven for half the seeds and on a 30 s
// scheduling tick for the other half; 200 Trinity-mix jobs at load 1.3 on
// Trinity(32).
func TestNoLookahead(t *testing.T) {
	machine := cluster.Trinity(32)
	generate := func(seed uint64) []*job.Job {
		jobs, err := workload.Generate(workload.Spec{
			Mix: workload.TrinityMix(), Jobs: 200, Arrival: workload.Poisson,
			Load: 1.3, Cluster: machine, RuntimeScale: 0.05, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	type start struct {
		at    des.Time
		nodes []int
	}
	run := func(policy string, interval des.Duration, jobs []*job.Job) map[cluster.JobID]start {
		pol, err := sched.New(policy, sched.DefaultShareConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{Cluster: machine, Policy: pol, SchedInterval: interval})
		if err := e.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		out := make(map[cluster.JobID]start, len(jobs))
		for _, h := range e.History() {
			out[h.Job] = start{h.Start, h.Nodes}
		}
		return out
	}
	pairs, compared := 0, 0
	for _, policy := range sched.Names() {
		for seed := uint64(1); seed <= 8; seed++ {
			pairs++
			interval := des.Duration(0)
			if seed%2 == 0 {
				interval = 30
			}
			whole := run(policy, interval, generate(seed))
			rng := des.NewRNG(seed)
			for cut := 0; cut < 3; cut++ {
				jobs := generate(seed)
				first, last := jobs[0].Submit, jobs[len(jobs)-1].Submit
				at := first + des.Time(0.2+0.6*rng.Float64())*(last-first)
				kept := slices.DeleteFunc(jobs, func(j *job.Job) bool { return j.Submit >= at })
				part := run(policy, interval, kept)
				for id, s := range whole {
					if s.at >= at {
						continue
					}
					compared++
					if got, ok := part[id]; !ok || got.at != s.at || !slices.Equal(got.nodes, s.nodes) {
						t.Fatalf("%s seed %d interval %v, cut at %v: job %d started at %v on %v with every job, at %v on %v without those arriving from the cut",
							policy, seed, interval, at, id, s.at, s.nodes, got.at, got.nodes)
					}
				}
			}
		}
	}
	if pairs < 50 || compared < 10000 {
		t.Fatalf("%d (policy, seed) pairs and %d compared starts: too few to pin causality", pairs, compared)
	}
}
