package des

// Kernel methods only the tests call. The kernel differential in
// reference_test.go compares the counters and event states step by step
// with the reference kernel's.

// Pending returns the number of events waiting in the queue (including
// canceled events that have not yet been popped).
func (s *Simulator) Pending() int { return len(s.queue) }

// Executed returns the number of events that have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Scheduled returns the total number of events ever scheduled.
func (s *Simulator) Scheduled() uint64 { return s.scheduled }

// Cancelled returns the number of events that were canceled before firing.
func (s *Simulator) Cancelled() uint64 { return s.cancelled }

// Stop halts the run loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// At returns the simulated time at which the event fires (or was scheduled to
// fire, if canceled).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }
