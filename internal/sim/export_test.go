package sim

import "repro/internal/fault"

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
