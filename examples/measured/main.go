// Measured: the bring-your-own-measurements workflow. Sites that enable
// oversubscription measure co-run pair slowdowns empirically instead of
// trusting an analytic model; this example exports the analytic matrix as a
// template, "measures" one pair as far worse than the model believes, and
// shows the scheduler reacting — the poisoned pair stops being co-located.
//
//	go run ./examples/measured
package main

import (
	"fmt"
	"log"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

func main() {
	// The analytic model believes miniFE+miniMD is the dream pairing.
	inter := interference.Default()
	fe, _ := app.ByName("minife")
	md, _ := app.ByName("minimd")
	ra, rb := inter.PairRates(fe.Stress, md.Stress)
	fmt.Printf("analytic model:  minife@%.2f + minimd@%.2f (throughput %.2f)\n",
		ra, rb, ra+rb)

	// Suppose the site's measurements disagree: on their hardware the pair
	// thrashes (say, a NUMA pathology the analytic model cannot see).
	measured := []interference.MeasuredPair{
		{A: "minife", B: "minimd", RateA: 0.35, RateB: 0.40},
	}
	fmt.Println("site measurement: minife@0.35 + minimd@0.40 (throughput 0.75 — sharing loses!)")

	run := func(pairs []interference.MeasuredPair, minRate float64) (des.Time, bool) {
		share := sched.DefaultShareConfig()
		share.MinEstimatedRate = minRate
		eng, err := sweepgrid.Scenario{
			Workload:      workload.Spec{Cluster: cluster.Trinity(4)},
			Policy:        "sharebackfill",
			Share:         share,
			MeasuredPairs: pairs,
		}.Engine()
		if err != nil {
			log.Fatal(err)
		}
		host := &job.Job{ID: 1, Name: "minife-1", App: fe, Nodes: 4,
			ReqWalltime: 8 * des.Hour, TrueRuntime: 2 * des.Hour}
		guest := &job.Job{ID: 2, Name: "minimd-2", App: md, Nodes: 4,
			ReqWalltime: 8 * des.Hour, TrueRuntime: 2 * des.Hour, Submit: des.Minute}
		if err := eng.SubmitAll([]*job.Job{host, guest}); err != nil {
			log.Fatal(err)
		}
		eng.RunAll()
		return eng.Now(), host.EverShared()
	}

	end, shared := run(nil, 0)
	fmt.Printf("\nanalytic scheduling:              done at %s, shared: %v\n", end, shared)

	// With only the measurements installed, the scheduler still co-locates
	// (the complementarity heuristic approves) but execution runs at the
	// measured rates — the makespan balloons.
	end, shared = run(measured, 0)
	fmt.Printf("measured rates, no gate:          done at %s, shared: %v\n", end, shared)

	// Adding the MinEstimatedRate gate lets the scheduler consult the
	// measured matrix at admission time: the poisoned pair is refused and
	// the jobs run back to back instead.
	end, shared = run(measured, 0.5)
	fmt.Printf("measured rates + 0.5 rate gate:   done at %s, shared: %v\n", end, shared)

	fmt.Println("\nexport the template with:  nodeshare-sim -corun-template > corun.csv")
}
