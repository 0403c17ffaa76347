// Quickstart: build a batch system, submit a handful of jobs, watch node
// sharing happen, and read the run's metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

func main() {
	// A small 8-node machine with 2-way SMT (the sharing substrate) under
	// the paper's primary strategy, co-allocation-aware backfill.
	eng, err := sweepgrid.Scenario{
		Workload: workload.Spec{Cluster: cluster.Trinity(8)},
		Policy:   "sharebackfill",
		Share:    sched.DefaultShareConfig(),
	}.Engine()
	if err != nil {
		log.Fatal(err)
	}

	// Watch the scheduler work.
	eng.TraceFn = func(line string) { fmt.Println(line) }

	minife, err := app.ByName("minife")
	if err != nil {
		log.Fatal(err)
	}
	minimd, err := app.ByName("minimd")
	if err != nil {
		log.Fatal(err)
	}
	// A bandwidth-bound solver takes the whole machine...
	host := &job.Job{ID: 1, Name: "minife-1", App: minife, Nodes: 8,
		ReqWalltime: 4 * des.Hour, TrueRuntime: 2 * des.Hour}
	// ...and a compute-bound MD run arrives a minute later. Under exclusive
	// allocation it would wait two hours; under node sharing it co-allocates
	// onto the SMT sibling threads immediately.
	guest := &job.Job{ID: 2, Name: "minimd-2", App: minimd, Nodes: 8,
		ReqWalltime: 2 * des.Hour, TrueRuntime: 1 * des.Hour, Submit: des.Minute}
	if err := eng.SubmitAll([]*job.Job{host, guest}); err != nil {
		log.Fatal(err)
	}

	eng.RunAll()

	fmt.Printf("\nhost  %s: waited %s, ran %s→%s (stretch %.2f)\n",
		host.App.Name, host.WaitTime(), host.StartTime(), host.EndTime(), host.Stretch())
	fmt.Printf("guest %s: waited %s, ran %s→%s (stretch %.2f)\n",
		guest.App.Name, guest.WaitTime(), guest.StartTime(), guest.EndTime(), guest.Stretch())

	m := eng.Result()
	fmt.Printf("\ncomputational efficiency: %.3f (1.0 = standard allocation)\n", m.CompEfficiency)
	fmt.Printf("machine time spent shared: %.0f%%\n", m.SharedFraction*100)
}
