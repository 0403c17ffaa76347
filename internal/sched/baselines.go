package sched

import (
	"repro/internal/job"
)

// FCFS is strict first-come-first-served with standard (exclusive) node
// allocation: the queue head blocks everything behind it until it fits.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements Policy.
func (FCFS) Schedule(ctx *Context) []Decision {
	ctx.begin()
	var out []Decision
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue // can never run anywhere; do not deadlock the queue
		}
		nodes, ok := pickIdle(ctx, j.Nodes)
		if !ok {
			break // strict FCFS: the head blocks
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// FirstFit scans the whole queue and starts any job that fits on idle nodes,
// in queue order. Unlike backfill it plans no reservations, so large jobs
// can starve under sustained small-job load. It is ShareFirstFit with
// sharing off.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "firstfit" }

// Schedule implements Policy.
func (FirstFit) Schedule(ctx *Context) []Decision { return ShareFirstFit{}.Schedule(ctx) }

// EASY is aggressive backfilling: the queue head gets a reservation at the
// earliest time enough nodes drain, and later jobs may jump ahead only if
// their requested walltime provably does not delay that reservation. It is
// ShareBackfill with sharing off.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy" }

// Schedule implements Policy.
func (EASY) Schedule(ctx *Context) []Decision { return ShareBackfill{}.Schedule(ctx) }

// Conservative backfilling gives every queued job a reservation, in queue
// order; a job may start now only when doing so honors all earlier
// reservations. Lower queue-jumping variance than EASY at some utilization
// cost. It is ShareConservative with sharing off.
type Conservative struct{}

// Name implements Policy.
func (Conservative) Name() string { return "conservative" }

// Schedule implements Policy.
func (Conservative) Schedule(ctx *Context) []Decision { return ShareConservative{}.Schedule(ctx) }

// exclusiveDecision claims nodes for the pass and builds the standard
// whole-node allocation decision on them.
func exclusiveDecision(ctx *Context, j *job.Job, nodes []int) Decision {
	for _, ni := range nodes {
		ctx.sc.claim(ni)
	}
	return Decision{
		Job:           j,
		Placement:     ctx.Cluster.ExclusivePlacement(j.ID, nodes, j.App.MemPerNodeMB),
		Shared:        false,
		EstimatedRate: 1,
	}
}
