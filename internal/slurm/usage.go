package slurm

import (
	"repro/internal/job"
	"repro/internal/sim"
)

// QueueOrder is the multifactor priority as an engine queue order (the shape
// of sweepgrid.Scenario.QueueOrder): descending priority against the
// engine's clock on a machine of maxNodes nodes, with the fairshare factor
// fed from the engine's finished jobs when WeightFairshare is set.
func (c PriorityConfig) QueueOrder(maxNodes int) func(*sim.Engine) func(a, b *job.Job) bool {
	return func(e *sim.Engine) func(a, b *job.Job) bool {
		var usage UsageFn
		if c.WeightFairshare > 0 {
			usage = UsageFromEngine(e)
		}
		return c.LessWithUsage(e.Now, maxNodes, usage)
	}
}

// UsageFromEngine returns a UsageFn that computes each user's share of the
// delivered node-seconds among finished jobs. The shares are recomputed only
// when the finished count changes, so calling it from a sort comparator is
// cheap.
func UsageFromEngine(e *sim.Engine) UsageFn {
	cachedCount := -1
	var shares map[string]float64
	return func(user string) float64 {
		finished := e.Finished()
		if len(finished) != cachedCount {
			shares = make(map[string]float64)
			total := 0.0
			for _, j := range finished {
				w := j.ServiceDemand()
				shares[j.User] += w
				total += w
			}
			if total > 0 {
				for k := range shares {
					shares[k] /= total
				}
			}
			cachedCount = len(finished)
		}
		return shares[user]
	}
}
