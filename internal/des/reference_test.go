package des

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"
)

// The container/heap kernel the value-typed queue replaced, kept as the
// reference it is held against: a heap of *refEvent behind heap.Interface,
// with the index written on every swap. Nothing outside this file's tests
// may use it.

type refEvent struct {
	at       Time
	seq      uint64
	index    int
	canceled bool
	fn       func(*refSim)
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refSim struct {
	now                            Time
	queue                          refHeap
	nextSeq                        uint64
	stopped                        bool
	executed, scheduled, cancelled uint64
}

func (s *refSim) Schedule(at Time, fn func(*refSim)) *refEvent {
	if at < s.now {
		panic(fmt.Sprintf("%v: at=%v now=%v", ErrPastEvent, at, s.now))
	}
	e := &refEvent{at: at, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	s.scheduled++
	heap.Push(&s.queue, e)
	return e
}

func (s *refSim) Cancel(e *refEvent) {
	if e == nil || e.canceled || e.index == -1 && e.fn == nil {
		return
	}
	e.canceled = true
	s.cancelled++
}

func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*refEvent)
		if e.canceled {
			continue
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

func (s *refSim) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		next := s.peek()
		if next == nil || next.at > until {
			break
		}
		s.Step()
	}
	if until != Forever && s.now < until && !s.stopped {
		s.now = until
	}
}

func (s *refSim) peek() *refEvent {
	for len(s.queue) > 0 {
		if e := s.queue[0]; !e.canceled {
			return e
		}
		heap.Pop(&s.queue)
	}
	return nil
}

// kernel is what the differential drives, implemented by both simulators.
// Handles index the events scheduled so far, in scheduling order.
type kernel interface {
	schedule(at Time, fn func()) int
	scheduleIn(d Duration, fn func()) int
	cancel(h int)
	stop()
	run(until Time)
	step() bool
	now() Time
	state(h int) (at Time, canceled bool)
	counters() [4]uint64 // pending, executed, scheduled, cancelled
}

type realKernel struct {
	s   *Simulator
	evs []*Event

	cancelPending, cancelFired int // Cancel calls on a live and on a fired event
}

func (k *realKernel) schedule(at Time, fn func()) int {
	k.evs = append(k.evs, k.s.Schedule(at, func(*Simulator) { fn() }))
	return len(k.evs) - 1
}
func (k *realKernel) scheduleIn(d Duration, fn func()) int {
	k.evs = append(k.evs, k.s.ScheduleIn(d, func(*Simulator) { fn() }))
	return len(k.evs) - 1
}
func (k *realKernel) cancel(h int) {
	switch e := k.evs[h]; {
	case e.fn == nil:
		k.cancelFired++
	case !e.canceled:
		k.cancelPending++
	}
	k.s.Cancel(k.evs[h])
}
func (k *realKernel) stop()          { k.s.Stop() }
func (k *realKernel) run(until Time) { k.s.Run(until) }
func (k *realKernel) step() bool     { return k.s.Step() }
func (k *realKernel) now() Time      { return k.s.Now() }
func (k *realKernel) state(h int) (Time, bool) {
	return k.evs[h].At(), k.evs[h].Canceled()
}
func (k *realKernel) counters() [4]uint64 {
	return [4]uint64{uint64(k.s.Pending()), k.s.Executed(), k.s.Scheduled(), k.s.Cancelled()}
}

type refKernel struct {
	s   *refSim
	evs []*refEvent
}

func (k *refKernel) schedule(at Time, fn func()) int {
	k.evs = append(k.evs, k.s.Schedule(at, func(*refSim) { fn() }))
	return len(k.evs) - 1
}
func (k *refKernel) scheduleIn(d Duration, fn func()) int {
	return k.schedule(k.s.now+d, fn)
}
func (k *refKernel) cancel(h int)   { k.s.Cancel(k.evs[h]) }
func (k *refKernel) stop()          { k.s.stopped = true }
func (k *refKernel) run(until Time) { k.s.Run(until) }
func (k *refKernel) step() bool     { return k.s.Step() }
func (k *refKernel) now() Time      { return k.s.now }
func (k *refKernel) state(h int) (Time, bool) {
	return k.evs[h].at, k.evs[h].canceled
}
func (k *refKernel) counters() [4]uint64 {
	return [4]uint64{uint64(len(k.s.queue)), k.s.executed, k.s.scheduled, k.s.cancelled}
}

// driveKernel runs one seeded sequence of Schedule / ScheduleIn / Cancel /
// Stop / Step / Run(until) on k and returns its log: every firing with its
// label and clock, and the clock and counters after every operation. Times
// come from a coarse grid, so many events share a timestamp, and handlers
// schedule at Now, cancel pending and fired events and stop the run.
func driveKernel(k kernel, seed uint64) []string {
	rng := NewRNG(seed)
	var log []string
	labels := 0
	var handler func(label int) func()
	handler = func(label int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", label, k.now()))
			switch rng.Intn(8) {
			case 0, 1:
				labels++
				k.scheduleIn(0, handler(labels))
			case 2:
				labels++
				k.scheduleIn(Duration(10*rng.Intn(3)), handler(labels))
			case 3:
				k.cancel(rng.Intn(labels + 1))
			case 4:
				if rng.Intn(4) == 0 {
					k.stop()
				}
			}
		}
	}
	k.schedule(0, handler(0))
	for op := 4 + rng.Intn(30); op > 0; op-- {
		switch rng.Intn(10) {
		case 0, 1, 2:
			labels++
			k.schedule(k.now()+Time(10*rng.Intn(4)), handler(labels))
		case 3:
			labels++
			k.scheduleIn(Duration(10*rng.Intn(3)), handler(labels))
		case 4:
			k.cancel(rng.Intn(labels + 1)) // pending, fired or canceled
		case 5:
			k.stop() // before a Run: Run starts afresh
		case 6:
			log = append(log, fmt.Sprintf("step %v", k.step()))
		default:
			k.run(k.now() + Time(10*rng.Intn(3)))
		}
		log = append(log, fmt.Sprintf("now %v counters %v", k.now(), k.counters()))
	}
	k.run(Forever)
	log = append(log, fmt.Sprintf("end %v counters %v", k.now(), k.counters()))
	for h := 0; h <= labels; h++ {
		at, canceled := k.state(h)
		log = append(log, fmt.Sprintf("event %d at %v canceled %v", h, at, canceled))
	}
	return log
}

// Differential: 10 000 seeded sequences fire in the same order at the same
// clock, and leave the same Pending / Executed / Scheduled / Cancelled after
// every operation, on the value-typed queue and on the container/heap
// reference.
func TestKernelMatchesReference(t *testing.T) {
	const sequences = 10000
	fired, cancelPending, cancelFired := 0, 0, 0
	for seed := uint64(1); seed <= sequences; seed++ {
		k := &realKernel{s: NewSimulator()}
		got := driveKernel(k, seed)
		want := driveKernel(&refKernel{s: &refSim{}}, seed)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: logs part at line %d:\n%q\nreference:\n%q", seed, i, got[i:], want[i:])
		}
		fired += int(k.s.Executed())
		cancelPending += k.cancelPending
		cancelFired += k.cancelFired
	}
	if fired < 5*sequences || cancelPending < sequences/2 || cancelFired < sequences/2 {
		t.Errorf("%d firings, %d cancels of a pending and %d of a fired event over %d sequences",
			fired, cancelPending, cancelFired, sequences)
	}
}
