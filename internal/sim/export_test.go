package sim

import (
	"repro/internal/fault"
	"repro/internal/job"
)

// Engine queries only the tests read.

// FaultTrace returns the injected failure trace (nil without an injector).
func (e *Engine) FaultTrace() []fault.Event {
	if e.injector == nil {
		return nil
	}
	return e.injector.Trace()
}

// QueueLen returns the number of pending jobs.
func (e *Engine) QueueLen() int { return len(e.queue) }

// RunningLen returns the number of running jobs.
func (e *Engine) RunningLen() int { return len(e.runList) }

// heldJobs returns the held jobs in hold order.
func (e *Engine) heldJobs() []*job.Job {
	var out []*job.Job
	e.Held(func(j *job.Job, _ string) { out = append(out, j) })
	return out
}
