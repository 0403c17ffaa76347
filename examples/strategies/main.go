// Strategies: run the same Trinity workload under every scheduling policy
// and compare the paper's headline metrics side by side — the evaluation's
// core comparison as a twenty-line program.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

func main() {
	machine := cluster.Trinity(32)
	// One high-load Trinity mix, identical for every policy (same seed).
	spec := workload.Spec{
		Mix:     workload.TrinityMix(),
		Jobs:    300,
		Arrival: workload.Poisson,
		Load:    1.4,
		Cluster: machine,
		// Scale the mini-apps' hours down to minutes so the example runs
		// in about a second; the workload shape is unchanged.
		RuntimeScale: 0.05,
		Seed:         42,
	}

	tbl := report.New("node sharing strategies on one Trinity workload",
		"policy", "CE", "SE", "util", "wait mean", "slowdown")
	for _, policy := range sched.Names() {
		m, _, err := sweepgrid.Scenario{
			Workload: spec, Policy: policy, Share: sched.DefaultShareConfig(),
		}.Run()
		if err != nil {
			log.Fatal(err)
		}
		tbl.Add(policy,
			report.F(m.CompEfficiency, 3),
			report.F(m.SchedEfficiency, 3),
			report.F(m.Utilization, 3),
			fmt.Sprintf("%.0fs", m.Wait.Mean),
			report.F(m.Slowdown.Mean, 2),
		)
	}
	tbl.AddNote("paper: sharing ≈ +19%% computational efficiency, +25.2%% scheduling efficiency")
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
