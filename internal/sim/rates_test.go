package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/topology"
	"repro/internal/workload"
)

// rateRun builds a sharing engine on Trinity(16) with 150 Trinity-mix jobs at
// load 1.4, with faults and a topology when asked, ready to step.
func rateRun(t *testing.T, policy string, seed uint64, faults, topo bool) *Engine {
	t.Helper()
	machine := cluster.Trinity(16)
	jobs, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: 150, Arrival: workload.Poisson,
		Load: 1.4, Cluster: machine, RuntimeScale: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: machine, Policy: mustPolicy(t, policy)}
	if faults {
		cfg.Faults = fault.Config{MTBF: 20000, MTTR: 600, Shape: 1, CrashProb: 0.05, MaxRetries: 3, Backoff: 30, Seed: seed}
	}
	if topo {
		tp := topology.Default(machine.Nodes)
		cfg.Topo, cfg.LocalityAware = &tp, true
	}
	e := New(cfg)
	if err := e.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNodeRatesMatchFresh steps fault runs of the three sharing policies —
// crashes, node failures and requeues, with a topology on and off — and
// after every event demands that every node rate the engine keeps equal a
// fresh AppendNamedRates over the node's residents, and that every running
// job's rate be the smallest of its nodes' fresh rates: a resident that
// came or went without voiding its nodes' rates shows here.
func TestNodeRatesMatchFresh(t *testing.T) {
	var checked, shared, failures, requeues int
	for _, policy := range []string{"sharefirstfit", "sharebackfill", "shareconservative"} {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, topo := range []bool{false, true} {
				e := rateRun(t, policy, seed, true, topo)
				name := fmt.Sprintf("%s seed %d topology %v", policy, seed, topo)
				fresh := func(ni int) []float64 {
					var loads []interference.Load
					for _, rr := range e.nodeRes[ni] {
						loads = append(loads, interference.Load{App: rr.job.App.Name, Stress: rr.stress})
					}
					return e.inter.AppendNamedRates(nil, loads)
				}
				for events := 1; e.sim.Step(); events++ {
					for ni, rates := range e.nodeRates {
						if len(rates) == 0 {
							continue
						}
						if want := fresh(ni); !slices.Equal(rates, want) {
							t.Fatalf("%s, event %d: node %d keeps rates %v, its residents give %v", name, events, ni, rates, want)
						}
						checked++
						if len(rates) > 1 {
							shared++
						}
					}
					for first, res := range e.nodeRes {
						for _, rec := range res {
							if rec.rec.NodeIDs[0] != first {
								continue // checked once, from its first node
							}
							rate := 1.0
							for _, ni := range rec.rec.NodeIDs {
								if r := fresh(ni)[slices.Index(e.nodeRes[ni], rec)]; r < rate {
									rate = r
								}
							}
							if rec.rec.Rate != rate {
								t.Fatalf("%s, event %d: job %d runs at %v, its nodes give %v", name, events, rec.job.ID, rec.rec.Rate, rate)
							}
						}
					}
				}
				r := e.Result()
				failures += r.NodeFailures
				requeues += r.Requeues
			}
		}
	}
	for what, n := range map[string]int{
		"cached node rate": checked, "cached rate of a shared node": shared,
		"node failure": failures, "requeue": requeues,
	} {
		if n < 10 {
			t.Errorf("only %d checks or events saw a %s", n, what)
		}
	}
}

// TestSoleTenantRunsAtFullRate (INV-18, the paper's F3 "no overhead"):
// after every event of seeded runs of the three sharing policies, a running
// job that has every one of its nodes to itself progresses at rate exactly
// 1 — sharing costs a job nothing until a co-runner actually lands beside
// it.
func TestSoleTenantRunsAtFullRate(t *testing.T) {
	alone, beside := 0, 0
	for _, policy := range []string{"sharefirstfit", "sharebackfill", "shareconservative"} {
		for seed := uint64(1); seed <= 3; seed++ {
			e := rateRun(t, policy, seed, false, seed == 3)
			for events := 1; e.sim.Step(); events++ {
				for _, r := range e.Running() {
					sole := true
					for _, ni := range r.NodeIDs {
						sole = sole && e.Cluster().Node(ni).SharingDegree() == 1
					}
					if !sole {
						beside++
						continue
					}
					alone++
					if r.Rate != 1 {
						t.Fatalf("%s seed %d, event %d: job %d has its nodes to itself and runs at %v",
							policy, seed, events, r.Job.ID, r.Rate)
					}
				}
			}
		}
	}
	if alone < 1000 || beside < 1000 {
		t.Fatalf("checked %d sole tenants and %d jobs beside another: the runs did not both share and not share", alone, beside)
	}
}
