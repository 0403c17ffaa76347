package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimulatorStartsAtZero(t *testing.T) {
	s := NewSimulator()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(30, func(*Simulator) { order = append(order, 3) })
	s.Schedule(10, func(*Simulator) { order = append(order, 1) })
	s.Schedule(20, func(*Simulator) { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5, func(*Simulator) { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order[%d] = %d, want %d (ties must fire FIFO)", i, v, i)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(10, func(*Simulator) {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, func(*Simulator) {})
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	s := NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.Schedule(1, nil)
}

func TestScheduleInNegativePanics(t *testing.T) {
	s := NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.ScheduleIn(-1, func(*Simulator) {})
}

func TestScheduleAtCurrentTimeRunsAfterQueued(t *testing.T) {
	s := NewSimulator()
	var order []string
	s.Schedule(10, func(sim *Simulator) {
		order = append(order, "a")
		sim.Schedule(10, func(*Simulator) { order = append(order, "c") })
	})
	s.Schedule(10, func(*Simulator) { order = append(order, "b") })
	s.RunAll()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	e := s.Schedule(10, func(*Simulator) { fired = true })
	s.Cancel(e)
	s.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if s.Cancelled() != 1 {
		t.Fatalf("Cancelled() = %d, want 1", s.Cancelled())
	}
	// Double-cancel must be a no-op.
	s.Cancel(e)
	if s.Cancelled() != 1 {
		t.Fatalf("double cancel counted twice: %d", s.Cancelled())
	}
	s.Cancel(nil) // must not panic
}

func TestCancelDoesNotAdvanceClock(t *testing.T) {
	s := NewSimulator()
	e := s.Schedule(100, func(*Simulator) {})
	s.Schedule(10, func(*Simulator) {})
	s.Cancel(e)
	s.RunAll()
	if s.Now() != 10 {
		t.Fatalf("Now() = %v, want 10 (canceled event must not advance clock)", s.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSimulator()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		s.Schedule(at, func(*Simulator) { fired = append(fired, at) })
	}
	s.Run(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want clock advanced to horizon 20", s.Now())
	}
	s.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), func(sim *Simulator) {
			count++
			if count == 3 {
				sim.Stop()
			}
		})
	}
	s.RunAll()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	// Run can be resumed after a Stop.
	s.RunAll()
	if count != 10 {
		t.Fatalf("executed %d events after resume, want 10", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
}

func TestCounters(t *testing.T) {
	s := NewSimulator()
	e1 := s.Schedule(1, func(*Simulator) {})
	s.Schedule(2, func(*Simulator) {})
	s.Cancel(e1)
	s.RunAll()
	if s.Scheduled() != 2 || s.Executed() != 1 || s.Cancelled() != 1 {
		t.Fatalf("counters scheduled/executed/cancelled = %d/%d/%d, want 2/1/1",
			s.Scheduled(), s.Executed(), s.Cancelled())
	}
}

func TestEventAt(t *testing.T) {
	s := NewSimulator()
	e := s.Schedule(42, func(*Simulator) {})
	if e.At() != 42 {
		t.Fatalf("At() = %v, want 42", e.At())
	}
}

func TestRecursiveScheduling(t *testing.T) {
	s := NewSimulator()
	ticks := 0
	var tick Handler
	tick = func(sim *Simulator) {
		ticks++
		if ticks < 1000 {
			sim.ScheduleIn(1, tick)
		}
	}
	s.Schedule(0, tick)
	s.RunAll()
	if ticks != 1000 {
		t.Fatalf("ticks = %d, want 1000", ticks)
	}
	if s.Now() != 999 {
		t.Fatalf("Now() = %v, want 999", s.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "00:00:00.000"},
		{61.5, "00:01:01.500"},
		{3600, "01:00:00.000"},
		{90000, "1d01:00:00.000"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

// Property: for any set of (bounded) timestamps, the kernel fires events in
// non-decreasing time order and the clock ends at the maximum timestamp.
func TestProperty_EventOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSimulator()
		var fired []Time
		maxAt := Time(0)
		for _, r := range raw {
			at := Time(r)
			if at > maxAt {
				maxAt = at
			}
			s.Schedule(at, func(*Simulator) { fired = append(fired, at) })
		}
		s.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two simulators fed the same schedule execute the
// same number of events and end at the same time.
func TestProperty_Determinism(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		run := func() (uint64, Time) {
			s := NewSimulator()
			rng := NewRNG(seed)
			for _, r := range raw {
				s.Schedule(Time(r), func(sim *Simulator) {
					if rng.Float64() < 0.5 {
						sim.ScheduleIn(Duration(rng.Intn(10)), func(*Simulator) {})
					}
				})
			}
			s.RunAll()
			return s.Executed(), s.Now()
		}
		e1, t1 := run()
		e2, t2 := run()
		return e1 == e2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllOnDrainedQueueLeavesClock(t *testing.T) {
	s := NewSimulator()
	s.Schedule(7, func(*Simulator) {})
	s.RunAll()
	s.RunAll()
	if s.Now() != 7 {
		t.Fatalf("Now() = %v, want 7", s.Now())
	}
}

func TestHugeEventCountStaysSorted(t *testing.T) {
	s := NewSimulator()
	rng := NewRNG(1)
	last := Time(math.Inf(-1))
	ok := true
	for i := 0; i < 20000; i++ {
		at := Time(rng.Intn(10000))
		s.Schedule(at, func(sim *Simulator) {
			if sim.Now() < last {
				ok = false
			}
			last = sim.Now()
		})
	}
	s.RunAll()
	if !ok {
		t.Fatal("events fired out of order under load")
	}
}
