// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel is the time substrate for the whole repository: the cluster
// simulator, the scheduler, and the SLURM-like controller all advance a
// simulated clock by executing events in timestamp order. Determinism is a
// hard requirement (see DESIGN.md §6): two runs with the same seed must
// produce bit-identical event orders, which the kernel guarantees by breaking
// timestamp ties with a monotonically increasing sequence number.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in simulated time, measured in seconds since the start of
// the simulation. Sub-second resolution is allowed; scheduling policies
// typically operate on whole seconds while the progress integrator uses the
// full float range.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = Time

// Common time constants, in simulated seconds.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 86400
)

// Forever is a sentinel meaning "run until the event queue drains".
const Forever Time = Time(math.MaxFloat64)

// String renders the time as D+HH:MM:SS.fff for readable traces.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	neg := ""
	s := float64(t)
	if s < 0 {
		neg = "-"
		s = -s
	}
	days := int(s) / 86400
	rem := s - float64(days*86400)
	h := int(rem) / 3600
	m := (int(rem) % 3600) / 60
	sec := rem - float64(h*3600+m*60)
	if days > 0 {
		return fmt.Sprintf("%s%dd%02d:%02d:%06.3f", neg, days, h, m, sec)
	}
	return fmt.Sprintf("%s%02d:%02d:%06.3f", neg, h, m, sec)
}

// Handler is the callback invoked when an event fires. The simulator passes
// itself so handlers can schedule follow-up events.
type Handler func(sim *Simulator)

// Event is a scheduled callback. Events are created via Simulator.Schedule
// and friends; the zero value is not usable.
type Event struct {
	at       Time
	canceled bool
	fn       Handler // nil once fired
}

// entry is one slot of the event queue: the ordering key by value beside the
// event, so ordering the queue never dereferences an event.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  *Event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a binary min-heap of entries ordered by (at, seq).
type eventQueue []entry

func (q *eventQueue) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest entry; the queue must not be empty.
func (q *eventQueue) pop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if n > 0 {
		// Sift the former last entry down from the root.
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(h[child]) {
				child = r
			}
			if !h[child].before(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	*q = h
	return top
}

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Simulator owns the simulated clock and the pending-event queue.
// It is not safe for concurrent use; the simulation model is single-threaded
// by design (determinism), with parallelism applied across independent
// simulation runs by the experiment harness instead.
type Simulator struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	stopped bool

	executed  uint64
	scheduled uint64
	cancelled uint64
}

// NewSimulator returns a simulator with the clock at time 0 and an empty
// event queue.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Schedule registers fn to run at absolute simulated time at.
// Scheduling at the current time is allowed (the event runs after all events
// already queued for that instant). Scheduling in the past panics: it is
// always a model bug, never a recoverable condition.
func (s *Simulator) Schedule(at Time, fn Handler) *Event {
	if at < s.now {
		panic(fmt.Sprintf("%v: at=%v now=%v", ErrPastEvent, at, s.now))
	}
	if fn == nil {
		panic("des: Schedule with nil handler")
	}
	e := &Event{at: at, fn: fn}
	s.queue.push(entry{at: at, seq: s.nextSeq, ev: e})
	s.nextSeq++
	s.scheduled++
	return e
}

// ScheduleIn registers fn to run after delay d from the current time.
func (s *Simulator) ScheduleIn(d Duration, fn Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("%v: delay=%v", ErrPastEvent, d))
	}
	return s.Schedule(s.now+d, fn)
}

// Cancel marks an event so it will not fire. Canceling an already-fired or
// already-canceled event is a no-op. Cancellation is O(1); the event is
// dropped lazily when popped.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canceled || e.fn == nil {
		return
	}
	e.canceled = true
	s.cancelled++
}

// Step executes the single earliest pending event. It returns false when the
// queue is empty. Canceled events are skipped (and consume no simulated
// time).
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop().ev
		if e.canceled {
			continue
		}
		if e.at < s.now {
			panic("des: event heap produced a past event") // unreachable unless heap corrupted
		}
		s.now = e.at
		fn := e.fn
		e.fn = nil
		s.executed++
		fn(s)
		return true
	}
	return false
}

// Run executes events in order until the queue drains, Stop is called, or
// the next event lies strictly after until. The clock is left at the time of
// the last executed event (or advanced to until if until is finite and the
// queue drained earlier events only).
func (s *Simulator) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		// Peek: do not pop events beyond the horizon.
		next, ok := s.peek()
		if !ok || next > until {
			break
		}
		s.Step()
	}
	if until != Forever && s.now < until && !s.stopped {
		s.now = until
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulator) RunAll() { s.Run(Forever) }

// peek drops canceled events from the head of the queue and returns the
// time of the earliest live one, false when none is left.
func (s *Simulator) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if !s.queue[0].ev.canceled {
			return s.queue[0].at, true
		}
		s.queue.pop()
	}
	return 0, false
}
