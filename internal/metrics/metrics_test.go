package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// mkFinished builds a finished job: nodes × trueRuntime of demand, submitted
// at submit, started at start, completed at end. When end−start exceeds
// trueRuntime the job is given a uniform reduced rate so the work closes
// exactly at end (a shared job).
func mkFinished(id int64, nodes int, submit, start, end, trueRuntime float64) *job.Job {
	j := &job.Job{
		ID:   cluster.JobID(id),
		App:  app.Synthetic("x", app.StressVector{0.5, 0.5, 0.5, 0.5}, 100, 100),
		Name: "x", Nodes: nodes,
		ReqWalltime: des.Duration(1e9), TrueRuntime: des.Duration(trueRuntime),
		Submit: des.Time(submit),
	}
	j.Start(des.Time(start))
	if end-start > trueRuntime {
		j.SetRate(des.Time(start), trueRuntime/(end-start))
	}
	j.Finish(des.Time(end))
	return j
}

// compute is Compute over samples holding finished and decisionTimes.
func compute(raw Result, finished []*job.Job, decisionTimes []time.Duration) Result {
	var s Samples
	s.AddFinished(finished)
	s.AddDecisions(decisionTimes)
	return Compute(raw, &s)
}

func TestComputeExclusiveBaseline(t *testing.T) {
	// Two dedicated jobs on a 4-node machine:
	//   j1: 2 nodes, 0→100 (demand 200)
	//   j2: 2 nodes, 0→200 (demand 400)
	// Busy node-seconds = 2·100 + 2·200 = 600. Makespan 200.
	finished := []*job.Job{
		mkFinished(1, 2, 0, 0, 100, 100),
		mkFinished(2, 2, 0, 0, 200, 200),
	}
	raw := Result{
		Policy: "easy", Submitted: 2, Nodes: 4,
		Makespan: 200, BusyNodeSeconds: 600, SharedNodeSeconds: 0,
	}
	r := compute(raw, finished, nil)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r.Finished != 2 {
		t.Fatalf("Finished = %d", r.Finished)
	}
	if math.Abs(r.TotalDemand-600) > 1e-9 {
		t.Fatalf("TotalDemand = %g, want 600", r.TotalDemand)
	}
	// Exclusive allocation delivers exactly 1 unit of work per busy
	// node-second.
	if math.Abs(r.CompEfficiency-1) > 1e-9 {
		t.Fatalf("CompEfficiency = %g, want 1", r.CompEfficiency)
	}
	// Ideal makespan = 600/4 = 150 → SE = 150/200 = 0.75.
	if math.Abs(r.SchedEfficiency-0.75) > 1e-9 {
		t.Fatalf("SchedEfficiency = %g, want 0.75", r.SchedEfficiency)
	}
	// Utilization = 600 / (4·200) = 0.75.
	if math.Abs(r.Utilization-0.75) > 1e-9 {
		t.Fatalf("Utilization = %g, want 0.75", r.Utilization)
	}
	if r.SharedFraction != 0 {
		t.Fatalf("SharedFraction = %g", r.SharedFraction)
	}
}

func TestComputeSharedRaisesCE(t *testing.T) {
	// One node hosts two jobs for 100 seconds, each progressing at 0.8:
	// demand delivered = 2·80 = 160 over 100 busy node-seconds → CE = 1.6.
	finished := []*job.Job{
		mkFinished(1, 1, 0, 0, 100, 80),
		mkFinished(2, 1, 0, 0, 100, 80),
	}
	raw := Result{
		Policy: "sharefirstfit", Submitted: 2, Nodes: 1,
		Makespan: 100, BusyNodeSeconds: 100, SharedNodeSeconds: 100,
	}
	r := compute(raw, finished, nil)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(r.CompEfficiency-1.6) > 1e-9 {
		t.Fatalf("CompEfficiency = %g, want 1.6", r.CompEfficiency)
	}
	if math.Abs(r.SharedFraction-1) > 1e-9 {
		t.Fatalf("SharedFraction = %g, want 1", r.SharedFraction)
	}
	// SE = ideal/actual = (160/1)/100 = 1.6 > 1: legal under sharing.
	if math.Abs(r.SchedEfficiency-1.6) > 1e-9 {
		t.Fatalf("SchedEfficiency = %g, want 1.6", r.SchedEfficiency)
	}
	// Both jobs stretched 100/80 = 1.25.
	if math.Abs(r.Stretch.Mean-1.25) > 1e-9 {
		t.Fatalf("Stretch mean = %g, want 1.25", r.Stretch.Mean)
	}
}

func TestComputeWaitAndSlowdown(t *testing.T) {
	finished := []*job.Job{
		mkFinished(1, 1, 0, 50, 150, 100),  // wait 50, turnaround 150, run 100 → slowdown 1.5
		mkFinished(2, 1, 0, 150, 250, 100), // wait 150, slowdown 2.5
	}
	r := compute(Result{Submitted: 2, Nodes: 1, Makespan: 250, BusyNodeSeconds: 200}, finished, nil)
	if math.Abs(r.Wait.Mean-100) > 1e-9 {
		t.Fatalf("Wait mean = %g, want 100", r.Wait.Mean)
	}
	if math.Abs(r.Slowdown.Mean-2) > 1e-9 {
		t.Fatalf("Slowdown mean = %g, want 2", r.Slowdown.Mean)
	}
}

func TestComputeDecisionTimes(t *testing.T) {
	r := compute(Result{Submitted: 0, Nodes: 1},
		nil, []time.Duration{100 * time.Nanosecond, 300 * time.Nanosecond})
	if r.DecisionNanos.N != 2 || math.Abs(r.DecisionNanos.Mean-200) > 1e-9 {
		t.Fatalf("DecisionNanos = %+v", r.DecisionNanos)
	}
}

func TestComputeEmptyRun(t *testing.T) {
	r := compute(Result{Policy: "fcfs", Nodes: 8}, nil, nil)
	if err := r.Validate(); err != nil {
		t.Fatalf("empty run invalid: %v", err)
	}
	if r.CompEfficiency != 0 || r.SchedEfficiency != 0 {
		t.Fatal("empty run has nonzero efficiencies")
	}
}

func TestValidateCatchesNonsense(t *testing.T) {
	bad := []Result{
		{Submitted: 1, Finished: 2},
		{CompEfficiency: -1},
		{SchedEfficiency: -0.1},
		{Utilization: 1.5},
		{SharedFraction: -0.2},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad result %d accepted: %+v", i, r)
		}
	}
}

func TestResultString(t *testing.T) {
	r := compute(Result{Policy: "easy", Submitted: 1, Nodes: 2, Makespan: 100, BusyNodeSeconds: 100},
		[]*job.Job{mkFinished(1, 1, 0, 0, 100, 100)}, nil)
	s := r.String()
	for _, frag := range []string{"easy", "CE=", "SE=", "util="} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
