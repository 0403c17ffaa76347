// Operations: a day in the life of the node-sharing batch system from the
// operator's seat — drain a node for maintenance, watch the scheduler work
// around it, resume it, and read the accounting at the end, including the
// occupancy timeline.
//
//	go run ./examples/operations
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/acct"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

func main() {
	machine := cluster.Trinity(8)
	eng, err := sweepgrid.Scenario{
		Workload: workload.Spec{Cluster: machine},
		Policy:   "sharebackfill",
		Share:    sched.DefaultShareConfig(),
	}.Engine()
	if err != nil {
		log.Fatal(err)
	}

	// Node 3 needs a DIMM swap before the morning rush.
	eng.Cluster().SetDrained(3, true)
	fmt.Println("node 3 drained for maintenance")

	// The morning's workload arrives.
	jobs, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: 40, Arrival: workload.Poisson,
		Load: 1.2, Cluster: machine, RuntimeScale: 0.02, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.SubmitAll(jobs); err != nil {
		log.Fatal(err)
	}

	// Run the first simulated half hour with the node out.
	eng.Run(30 * des.Minute)
	fmt.Printf("t=%s: %d running, %d queued, node 3 still drained\n",
		eng.Now(), len(eng.Running()), len(eng.Pending()))

	// Maintenance done — resume and let the day play out.
	eng.Cluster().SetDrained(3, false)
	eng.Kick()
	fmt.Println("node 3 resumed")
	eng.RunAll()

	// The occupancy timeline: node 3's row starts idle (the '·' prefix).
	var spans []report.Span
	for _, rec := range eng.History() {
		for _, ni := range rec.Nodes {
			spans = append(spans, report.Span{
				Node: ni, Start: float64(rec.Start), End: float64(rec.End),
				Label: int(rec.Job) - 1,
			})
		}
	}
	fmt.Println()
	fmt.Print(report.Gantt(spans, machine.Nodes, 96, 0, 0))

	// End-of-day accounting, per application.
	fmt.Println()
	if err := acct.Summary(acct.FromJobs(eng.Finished())).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", eng.Result())
}
