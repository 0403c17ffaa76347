package main

import (
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/interference"
	"repro/internal/sched"
)

// The four policies every sweep cell and every decision micro-benchmark uses.
var gridPolicies = []string{"easy", "conservative", "sharefirstfit", "sharebackfill"}

// timeAllocs runs fn n times after one untimed call and returns nanoseconds
// and heap allocations per call.
func timeAllocs(n int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// microLayers times the small public entry points the simulator calls on its
// hot path, the way the root micro-benchmarks do: one policy pass on the F3
// overhead context (200 queued jobs), one allocate+release on the cluster, one
// co-run model evaluation.
func microLayers(res *result, iters int) error {
	for _, name := range gridPolicies {
		ctx, err := exp.BuildOverheadContext(exp.Options{}, 200)
		if err != nil {
			return err
		}
		pol, err := sched.New(name, sched.DefaultShareConfig())
		if err != nil {
			return err
		}
		ns, allocs := timeAllocs(iters, func() { pol.Schedule(ctx) })
		res.set("sched.decision_ns."+name, ns)
		res.set("sched.decision_allocs."+name, allocs)
	}

	c := cluster.New(cluster.Trinity(32))
	nodes := []int{0, 1, 2, 3}
	var allocErr error
	id := cluster.JobID(0)
	ns, _ := timeAllocs(iters*1000, func() {
		id++
		if err := c.Allocate(c.LayerPlacement(id, nodes, cluster.PrimaryLayer, 1024)); err != nil {
			allocErr = err
			return
		}
		if _, err := c.Release(id); err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return allocErr
	}
	res.set("cluster.allocate_release_ns", ns)

	m := interference.Default()
	cat := app.Catalogue()
	loads := []app.StressVector{cat[0].Stress, cat[1].Stress}
	ns, _ = timeAllocs(iters*1000, func() { m.NodeRates(loads) })
	res.set("interference.node_rates_ns", ns)
	return nil
}
