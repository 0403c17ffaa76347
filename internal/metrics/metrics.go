// Package metrics defines the evaluation metrics of the node-sharing study
// and computes them from raw simulation observations.
//
// The two headline metrics follow the paper's comparison ("an increased
// computational efficiency of 19% and an increased scheduling efficiency of
// 25.2% compared to standard node allocation"):
//
//   - Computational efficiency: useful work delivered per allocated
//     node-second, CE = Σ finished service demand / busy node-seconds.
//     Under standard (exclusive) allocation every allocated node runs its
//     job at rate 1, so CE is exactly 1; sharing raises CE when co-located
//     jobs' progress rates sum above 1 and lowers it when they interfere.
//
//   - Scheduling efficiency: how close the schedule comes to the packing
//     lower bound, SE = ideal makespan / actual makespan, with
//     ideal = total service demand / machine nodes. Sharing shortens the
//     makespan of a closed workload, raising SE.
//
// Both are dimensionless, which makes the paper's relative improvements
// directly comparable across machines.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/stats"
)

// BoundedSlowdownTau is the standard 10-second threshold used for the
// bounded-slowdown metric.
const BoundedSlowdownTau des.Duration = 10

// Result is the full metric set of one simulation run.
type Result struct {
	// Policy is the scheduling policy's registry name.
	Policy string
	// Submitted and Finished count jobs; Killed counts jobs terminated at
	// their walltime limit (only possible under strict limit enforcement).
	Submitted, Finished, Killed int
	// WastedNodeSeconds is the occupancy consumed by killed jobs, whose
	// work is discarded.
	WastedNodeSeconds float64
	// Makespan is the time from run start to the last job completion.
	Makespan des.Duration
	// TotalDemand is the aggregate service demand of finished jobs in
	// node-seconds.
	TotalDemand float64
	// BusyNodeSeconds integrates the number of allocated (non-idle) nodes
	// over time.
	BusyNodeSeconds float64
	// SharedNodeSeconds integrates the number of nodes hosting ≥2 jobs.
	SharedNodeSeconds float64
	// Nodes is the machine size the run used.
	Nodes int

	// CompEfficiency is useful work per allocated node-second (headline 1).
	CompEfficiency float64
	// SchedEfficiency is ideal makespan over actual makespan (headline 2).
	SchedEfficiency float64
	// Utilization is busy node-seconds over machine node-seconds.
	Utilization float64
	// SharedFraction is the fraction of busy node-seconds spent shared.
	SharedFraction float64

	// Wait summarizes queue waits of finished jobs (seconds).
	Wait stats.Summary
	// Slowdown summarizes bounded slowdowns of finished jobs.
	Slowdown stats.Summary
	// Stretch summarizes execution-time stretch (1 = never slowed).
	Stretch stats.Summary

	// DecisionNanos summarizes the real (wall-clock) time the scheduler
	// spent per decision pass — the paper's "no overhead" claim.
	DecisionNanos stats.Summary

	// Resilience observations (all zero when fault injection is off).

	// NodeFailures and NodeRepairs count node fail/repair transitions.
	NodeFailures, NodeRepairs int
	// JobCrashes counts job attempts terminated by the software-crash
	// process (node-failure victims are counted under Requeues only).
	JobCrashes int
	// Requeues counts evictions that returned a job to the queue.
	Requeues int
	// FailedJobs counts jobs abandoned after exhausting their retries
	// (a subset of Killed).
	FailedJobs int
	// LostNodeSeconds is the node-time of partial progress discarded by
	// evictions (lost work is charged, never silently dropped).
	LostNodeSeconds float64
	// DownNodeSeconds integrates the number of down nodes over time.
	DownNodeSeconds float64
	// MeanRescheduleSeconds is the mean time from a job's eviction to its
	// next start (the queue's recovery latency); 0 when nothing requeued.
	MeanRescheduleSeconds float64
	// Goodput is delivered useful work over all node-time charged for work:
	// TotalDemand / (TotalDemand + LostNodeSeconds + WastedNodeSeconds).
	// 1 when nothing is ever lost; falls as failures burn node-time.
	Goodput float64
}

// Samples are the observations a Result summarizes: each finished job's
// wait, bounded slowdown, stretch and service demand, and each scheduling
// pass's wall-clock time. Their owner adds to them as the run goes, so a
// Result computed again after a few more jobs costs those jobs, not the run
// (see stats.Series). The zero Samples is empty and ready to use.
type Samples struct {
	wait, slowdown, stretch, decisionNanos stats.Series
	// demand is the finished jobs' total service demand, summed in the
	// order they were added.
	demand float64
}

// AddFinished records finished jobs, in the order given.
func (s *Samples) AddFinished(jobs []*job.Job) {
	s.wait.Grow(len(jobs))
	s.slowdown.Grow(len(jobs))
	s.stretch.Grow(len(jobs))
	for _, j := range jobs {
		s.demand += j.ServiceDemand()
		s.wait.Add(float64(j.WaitTime()))
		s.slowdown.Add(j.BoundedSlowdown(BoundedSlowdownTau))
		s.stretch.Add(j.Stretch())
	}
}

// AddDecisions records scheduling passes' wall-clock times.
func (s *Samples) AddDecisions(times []time.Duration) {
	s.decisionNanos.Grow(len(times))
	for _, d := range times {
		s.decisionNanos.Add(float64(d.Nanoseconds()))
	}
}

// Compute fills the derived fields of a Result from its raw observations
// plus the samples of the run so far. It returns the completed Result.
func Compute(raw Result, s *Samples) Result {
	r := raw
	r.Wait = s.wait.Summary()
	r.Slowdown = s.slowdown.Summary()
	r.Stretch = s.stretch.Summary()
	r.DecisionNanos = s.decisionNanos.Summary()
	r.Finished = r.Wait.N
	r.TotalDemand = s.demand

	if r.BusyNodeSeconds > 0 {
		r.CompEfficiency = r.TotalDemand / r.BusyNodeSeconds
		r.SharedFraction = r.SharedNodeSeconds / r.BusyNodeSeconds
	}
	if r.Makespan > 0 && r.Nodes > 0 {
		ideal := r.TotalDemand / float64(r.Nodes)
		r.SchedEfficiency = ideal / float64(r.Makespan)
		r.Utilization = r.BusyNodeSeconds / (float64(r.Nodes) * float64(r.Makespan))
	}

	if charged := r.TotalDemand + r.LostNodeSeconds + r.WastedNodeSeconds; charged > 0 {
		r.Goodput = r.TotalDemand / charged
	}
	return r
}

// Validate checks internal consistency of a computed Result.
func (r Result) Validate() error {
	switch {
	case r.Finished+r.Killed > r.Submitted:
		return fmt.Errorf("metrics: finished %d + killed %d > submitted %d",
			r.Finished, r.Killed, r.Submitted)
	case r.WastedNodeSeconds < 0:
		return fmt.Errorf("metrics: negative wasted node-seconds %g", r.WastedNodeSeconds)
	case r.CompEfficiency < 0:
		return fmt.Errorf("metrics: negative computational efficiency %g", r.CompEfficiency)
	// Scheduling efficiency may legitimately exceed 1: the ideal makespan is
	// a rate-1 packing bound, and SMT sharing can deliver more than one
	// dedicated-node-second of work per node-second.
	case r.SchedEfficiency < 0:
		return fmt.Errorf("metrics: negative scheduling efficiency %g", r.SchedEfficiency)
	case r.Utilization < 0 || r.Utilization > 1+1e-9:
		return fmt.Errorf("metrics: utilization %g outside [0,1]", r.Utilization)
	case r.SharedFraction < 0 || r.SharedFraction > 1+1e-9:
		return fmt.Errorf("metrics: shared fraction %g outside [0,1]", r.SharedFraction)
	case r.LostNodeSeconds < 0:
		return fmt.Errorf("metrics: negative lost node-seconds %g", r.LostNodeSeconds)
	case r.DownNodeSeconds < 0:
		return fmt.Errorf("metrics: negative down node-seconds %g", r.DownNodeSeconds)
	case r.Goodput < 0 || r.Goodput > 1+1e-9:
		return fmt.Errorf("metrics: goodput %g outside [0,1]", r.Goodput)
	case r.FailedJobs > r.Killed:
		return fmt.Errorf("metrics: failed jobs %d exceed killed %d", r.FailedJobs, r.Killed)
	case r.NodeRepairs > r.NodeFailures:
		return fmt.Errorf("metrics: repairs %d exceed failures %d", r.NodeRepairs, r.NodeFailures)
	}
	return nil
}

// String renders a one-line run summary.
func (r Result) String() string {
	return fmt.Sprintf(
		"%s: %d/%d jobs, makespan=%s CE=%.3f SE=%.3f util=%.3f shared=%.2f wait(mean)=%s",
		r.Policy, r.Finished, r.Submitted, r.Makespan,
		r.CompEfficiency, r.SchedEfficiency, r.Utilization, r.SharedFraction,
		des.Duration(r.Wait.Mean))
}
