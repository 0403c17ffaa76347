package job

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
)

func testApp() app.Model {
	return app.Synthetic("t", app.StressVector{0.5, 0.5, 0.5, 0.5}, 1024, 1000)
}

func newJob(id int64) *Job {
	return &Job{
		ID:          1,
		Name:        "t-1",
		App:         testApp(),
		Nodes:       2,
		ReqWalltime: 2000,
		TrueRuntime: 1000,
		Submit:      100,
	}
}

func TestValidate(t *testing.T) {
	j := newJob(1)
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	mutations := []func(*Job){
		func(j *Job) { j.ID = 0 },
		func(j *Job) { j.Nodes = 0 },
		func(j *Job) { j.ReqWalltime = 0 },
		func(j *Job) { j.TrueRuntime = 0 },
		func(j *Job) { j.TrueRuntime = 3000 }, // exceeds request
		func(j *Job) { j.Submit = -1 },
		// Times that are not numbers or not finite: NaN passes a plain
		// comparison, so each used to be accepted.
		func(j *Job) { j.Submit = des.Time(math.NaN()) },
		func(j *Job) { j.Submit = des.Time(math.Inf(1)) },
		func(j *Job) { j.ReqWalltime = des.Duration(math.NaN()) },
		func(j *Job) { j.ReqWalltime = des.Duration(math.Inf(1)) },
		func(j *Job) { j.TrueRuntime = des.Duration(math.NaN()) },
		func(j *Job) { j.TrueRuntime = des.Duration(math.Inf(1)) },
		func(j *Job) { j.ReqWalltime, j.TrueRuntime = des.Duration(math.Inf(1)), des.Duration(math.Inf(1)) },
	}
	for i, mutate := range mutations {
		jj := newJob(1)
		mutate(jj)
		if err := jj.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestLifecycleDedicated(t *testing.T) {
	j := newJob(1)
	if j.State() != Pending {
		t.Fatalf("initial state = %v", j.State())
	}
	j.Start(150)
	if j.State() != Running || j.StartTime() != 150 {
		t.Fatalf("state after Start: %v at %v", j.State(), j.StartTime())
	}
	if got := j.Remaining(150); got != 1000 {
		t.Fatalf("Remaining at start = %g", got)
	}
	if got := j.ETA(150); got != 1150 {
		t.Fatalf("ETA = %v, want 1150", got)
	}
	j.Finish(1150)
	if j.State() != Finished || j.EndTime() != 1150 {
		t.Fatalf("state after Finish: %v at %v", j.State(), j.EndTime())
	}
	if j.WaitTime() != 50 {
		t.Fatalf("WaitTime = %v, want 50", j.WaitTime())
	}
	if j.Turnaround() != 1050 {
		t.Fatalf("Turnaround = %v, want 1050", j.Turnaround())
	}
	if j.Stretch() != 1 {
		t.Fatalf("Stretch = %g, want 1", j.Stretch())
	}
	if j.EverShared() {
		t.Fatal("dedicated job reports sharing")
	}
}

func TestRateChangeStretchesExecution(t *testing.T) {
	j := newJob(1)
	j.Submit = 0
	j.Start(0)
	// Run 500s dedicated, then shared at 0.5 for the remaining 500s of work,
	// which takes 1000 wall seconds.
	j.SetRate(500, 0.5)
	if got := j.Remaining(500); got != 500 {
		t.Fatalf("Remaining after 500s dedicated = %g", got)
	}
	if got := j.ETA(500); got != 1500 {
		t.Fatalf("ETA at rate 0.5 = %v, want 1500", got)
	}
	j.Finish(1500)
	if j.Stretch() != 1.5 {
		t.Fatalf("Stretch = %g, want 1.5", j.Stretch())
	}
	if !j.EverShared() {
		t.Fatal("job with reduced rate not marked shared")
	}
}

func TestMultipleRateChanges(t *testing.T) {
	j := newJob(1)
	j.Submit = 0
	j.Start(0)
	j.SetRate(100, 0.5)  // 100 work done; 900 left
	j.SetRate(300, 0.25) // +100 work; 800 left
	j.SetRate(700, 1.0)  // +100 work; 700 left
	if got := j.Remaining(700); got != 700 {
		t.Fatalf("Remaining = %g, want 700", got)
	}
	j.Finish(1400)
	if j.EndTime() != 1400 {
		t.Fatal("end time wrong")
	}
}

func TestFinishWithResidualWorkPanics(t *testing.T) {
	j := newJob(1)
	j.Start(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Finish with residual work did not panic")
		}
	}()
	j.Finish(600)
}

func TestStateGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("double Start", func() {
		j := newJob(1)
		j.Start(200)
		j.Start(300)
	})
	mustPanic("Start before submit", func() {
		j := newJob(1)
		j.Start(50)
	})
	mustPanic("SetRate pending", func() {
		j := newJob(1)
		j.SetRate(200, 0.5)
	})
	mustPanic("SetRate zero", func() {
		j := newJob(1)
		j.Start(200)
		j.SetRate(300, 0)
	})
	mustPanic("SetRate above 1", func() {
		j := newJob(1)
		j.Start(200)
		j.SetRate(300, 1.5)
	})
	mustPanic("SetRate into past", func() {
		j := newJob(1)
		j.Start(200)
		j.SetRate(300, 0.5)
		j.SetRate(250, 0.5)
	})
	mustPanic("Finish pending", func() {
		j := newJob(1)
		j.Finish(300)
	})
	mustPanic("ETA pending", func() {
		j := newJob(1)
		j.ETA(300)
	})
	mustPanic("WaitTime pending", func() {
		j := newJob(1)
		j.WaitTime()
	})
	mustPanic("Turnaround running", func() {
		j := newJob(1)
		j.Start(200)
		j.Turnaround()
	})
	mustPanic("Cancel running", func() {
		j := newJob(1)
		j.Start(200)
		j.Cancel(300)
	})
}

func TestCancel(t *testing.T) {
	j := newJob(1)
	j.Cancel(500)
	if j.State() != Cancelled || j.EndTime() != 500 {
		t.Fatalf("state after cancel: %v at %v", j.State(), j.EndTime())
	}
}

func TestRemainingByState(t *testing.T) {
	j := newJob(1)
	if got := j.Remaining(0); got != 1000 {
		t.Fatalf("pending Remaining = %g, want full demand", got)
	}
	j.Start(100)
	j.Finish(1100)
	if got := j.Remaining(2000); got != 0 {
		t.Fatalf("finished Remaining = %g, want 0", got)
	}
}

func TestBoundedSlowdown(t *testing.T) {
	j := newJob(1)
	j.Start(600) // waited 500
	j.Finish(1600)
	// turnaround 1500, runtime 1000 → slowdown 1.5.
	if got := j.BoundedSlowdown(10); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("BoundedSlowdown = %g, want 1.5", got)
	}
	// With a huge threshold the slowdown floors at 1.
	if got := j.BoundedSlowdown(1e9); got != 1 {
		t.Fatalf("BoundedSlowdown with large tau = %g, want 1", got)
	}
}

func TestServiceDemand(t *testing.T) {
	j := newJob(1)
	if j.ServiceDemand() != 2000 {
		t.Fatalf("ServiceDemand = %g, want 2000 (2 nodes × 1000s)", j.ServiceDemand())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Pending: "PENDING", Running: "RUNNING", Finished: "FINISHED", Cancelled: "CANCELLED",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestJobString(t *testing.T) {
	j := newJob(1)
	s := j.String()
	for _, frag := range []string{"job 1", "nodes=2", "PENDING"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// Property (progress conservation, DESIGN.md §6): for any piecewise rate
// schedule, the wall time to finish equals the sum of work/rate segments,
// and integrated progress equals the service demand.
func TestProperty_ProgressConservation(t *testing.T) {
	f := func(segments []uint8) bool {
		j := &Job{ID: 1, App: testApp(), Nodes: 1,
			ReqWalltime: 1e9, TrueRuntime: 1000, Submit: 0}
		j.Start(0)
		now := des.Time(0)
		workLeft := 1000.0
		// Apply up to 8 random-rate segments of 100 wall-seconds each.
		if len(segments) > 8 {
			segments = segments[:8]
		}
		rate := 1.0
		for _, s := range segments {
			rate = 0.1 + 0.9*float64(s)/255
			j.SetRate(now, rate)
			dt := 100.0
			if workLeft <= rate*dt {
				break
			}
			now += des.Time(dt)
			workLeft -= rate * dt
		}
		// Finish at the exact projected completion of the final rate.
		j.SetRate(now, rate) // integrate to now (no-op rate change)
		finish := j.ETA(now)
		j.Finish(finish)
		return j.State() == Finished
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKill(t *testing.T) {
	j := newJob(1)
	j.Submit = 0
	j.Start(0)
	j.SetRate(200, 0.5) // 200 work done
	// Killed at t=600: work delivered = 200 + 400·0.5 = 400 of 1000.
	j.Kill(600)
	if j.State() != Killed || j.EndTime() != 600 {
		t.Fatalf("state/end after kill = %v/%v", j.State(), j.EndTime())
	}
	if got := j.DeliveredWork(); got != 400 {
		t.Fatalf("DeliveredWork = %g, want 400", got)
	}
}

func TestKillGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Kill on pending job did not panic")
		}
	}()
	newJob(1).Kill(500)
}

func TestDeliveredWorkByState(t *testing.T) {
	j := newJob(1)
	if j.DeliveredWork() != 0 {
		t.Fatal("pending job delivered work")
	}
	j2 := newJob(2)
	j2.Cancel(50)
	if j2.DeliveredWork() != 0 {
		t.Fatal("cancelled job delivered work")
	}
	j3 := newJob(3)
	j3.Start(100)
	j3.Finish(1100)
	if j3.DeliveredWork() != 1000 {
		t.Fatalf("finished DeliveredWork = %g", j3.DeliveredWork())
	}
}

func TestKilledStateString(t *testing.T) {
	if Killed.String() != "KILLED" {
		t.Fatalf("Killed.String() = %q", Killed.String())
	}
}

func TestValidateDependencies(t *testing.T) {
	j := newJob(1)
	j.After = []cluster.JobID{2, 3}
	if err := j.Validate(); err != nil {
		t.Fatalf("valid deps rejected: %v", err)
	}
	j.After = []cluster.JobID{1}
	if err := j.Validate(); err == nil {
		t.Fatal("self-dependency accepted")
	}
	j.After = []cluster.JobID{0}
	if err := j.Validate(); err == nil {
		t.Fatal("NoJob dependency accepted")
	}
}

// The completion tolerance follows the clock's resolution: at t = 3.5e10 s
// float64 instants are 7.6 µs apart, so one step of residue at rate 1 is
// round-off there — and a material residue at an ordinary clock.
func TestFinishToleranceFollowsClockResolution(t *testing.T) {
	far := &Job{ID: 1, Nodes: 1, ReqWalltime: 1e9, TrueRuntime: 1e9, Submit: 0}
	far.Start(3.4e10)
	end := des.Time(math.Nextafter(3.5e10, 0)) // one representable instant early: 7.6 µs
	if !far.WorkDone(end) {
		t.Fatalf("%.3g s of residue at t=3.5e10 not recognised as round-off", far.Remaining(end))
	}
	far.Finish(end) // panicked with the absolute 1 µs tolerance

	near := &Job{ID: 2, Nodes: 1, ReqWalltime: 1000, TrueRuntime: 1000, Submit: 0}
	near.Start(0)
	if near.WorkDone(1000 - 3.8e-6) {
		t.Fatal("3.8 µs of residue at t=1000 accepted as round-off")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Finish accepted 3.8 µs of work left at an ordinary clock")
		}
	}()
	near.Finish(1000 - 3.8e-6)
}
