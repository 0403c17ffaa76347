package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// faultWorkload builds a deterministic mixed workload; jobs carry mutable
// runtime state, so every engine needs a fresh copy.
func faultWorkload(n int) []*job.Job {
	apps := []app.Model{computeApp, membwApp}
	jobs := make([]*job.Job, n)
	for i := 0; i < n; i++ {
		wall := des.Duration(800 + 100*(i%5))
		jobs[i] = &job.Job{
			ID:          cluster.JobID(i + 1),
			Name:        "w",
			App:         apps[i%2],
			Nodes:       1 + i%2,
			Submit:      des.Time(30 * i),
			ReqWalltime: wall,
			TrueRuntime: wall * 3 / 4,
		}
	}
	return jobs
}

// stripTiming zeroes the only wall-clock-dependent field so results compare
// exactly across runs.
func stripTiming(r metrics.Result) metrics.Result {
	r.DecisionNanos = stats.Summary{}
	return r
}

func runFaulty(t *testing.T, policy string, faults fault.Config, n int) (*Engine, metrics.Result) {
	t.Helper()
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, policy), Faults: faults})
	if err := e.SubmitAll(faultWorkload(n)); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	r := e.Result()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return e, r
}

// TestFaultDeterminism: the same seed must yield the same failure trace and
// the same run, draw for draw; a different seed must yield a different trace.
func TestFaultDeterminism(t *testing.T) {
	cfg := fault.Config{MTBF: 4000, MTTR: 400, Shape: 1, CrashProb: 0.1, MaxRetries: 3, Backoff: 30, Seed: 7}
	e1, r1 := runFaulty(t, "sharebackfill", cfg, 40)
	e2, r2 := runFaulty(t, "sharebackfill", cfg, 40)

	if !reflect.DeepEqual(e1.FaultTrace(), e2.FaultTrace()) {
		t.Fatalf("same seed produced different failure traces:\n%v\n%v",
			e1.FaultTrace(), e2.FaultTrace())
	}
	if got, want := stripTiming(r1), stripTiming(r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", got, want)
	}
	if r1.NodeFailures == 0 {
		t.Fatal("fault sweep injected no node failures; test is vacuous")
	}

	other := cfg
	other.Seed = 8
	e3, _ := runFaulty(t, "sharebackfill", other, 40)
	if reflect.DeepEqual(e1.FaultTrace(), e3.FaultTrace()) {
		t.Fatal("different seeds produced identical failure traces")
	}
}

// TestFaultZeroCostWhenOff: the zero Faults config and a rateless one that
// sets everything else must be bit-identical — the fault layer may not
// perturb existing results when off.
func TestFaultZeroCostWhenOff(t *testing.T) {
	_, base := runFaulty(t, "sharebackfill", fault.Config{}, 40)
	_, rateless := runFaulty(t, "sharebackfill",
		fault.Config{MTBF: math.Inf(1), MTTR: 900, Shape: 1, MaxRetries: 5, Backoff: 60, Seed: 9}, 40)

	if got, want := stripTiming(rateless), stripTiming(base); !reflect.DeepEqual(got, want) {
		t.Fatalf("rateless fault config perturbed the run:\n%+v\n%+v", got, want)
	}
	if base.NodeFailures != 0 || base.Requeues != 0 || base.LostNodeSeconds != 0 {
		t.Fatalf("fault metrics nonzero without injection: %+v", base)
	}
}

// TestFaultConservationUnderChurn: under heavy node failure churn, every job
// still reaches a terminal state, no allocation leaks, every finished job
// delivered exactly its demand, and the machine ends whole (repairs fire even
// after the workload drains).
func TestFaultConservationUnderChurn(t *testing.T) {
	for _, policy := range []string{"easy", "sharebackfill"} {
		cfg := fault.Config{MTBF: 2500, MTTR: 300, Shape: 1, CrashProb: 0.05, MaxRetries: 3, Backoff: 30, Seed: 3}
		e, r := runFaulty(t, policy, cfg, 60)

		if r.NodeFailures == 0 {
			t.Fatalf("%s: no failures injected; churn test is vacuous", policy)
		}
		if r.Finished+r.Killed != r.Submitted {
			t.Fatalf("%s: job conservation broken: %d finished + %d killed != %d submitted",
				policy, r.Finished, r.Killed, r.Submitted)
		}
		if e.QueueLen() != 0 || e.RunningLen() != 0 || len(e.heldJobs()) != 0 {
			t.Fatalf("%s: jobs stranded: queue=%d running=%d held=%d",
				policy, e.QueueLen(), e.RunningLen(), len(e.heldJobs()))
		}
		if e.Cluster().BusyThreads() != 0 {
			t.Fatalf("%s: %d threads leaked after run", policy, e.Cluster().BusyThreads())
		}
		if down := e.Cluster().DownNodes(); len(down) != 0 {
			t.Fatalf("%s: nodes %v still down after the run drained", policy, down)
		}
		if r.NodeRepairs != r.NodeFailures {
			t.Fatalf("%s: %d failures but %d repairs; machine ended broken",
				policy, r.NodeFailures, r.NodeRepairs)
		}
		for _, j := range e.Finished() {
			if math.Abs(j.DeliveredWork()-float64(j.TrueRuntime)) > 1e-6 {
				t.Fatalf("%s: finished job %d delivered %g of %v",
					policy, j.ID, j.DeliveredWork(), j.TrueRuntime)
			}
		}
		if r.Requeues > 0 && r.LostNodeSeconds <= 0 {
			t.Fatalf("%s: %d requeues but no lost work charged", policy, r.Requeues)
		}
		if r.Goodput <= 0 || r.Goodput > 1 {
			t.Fatalf("%s: goodput %g outside (0,1]", policy, r.Goodput)
		}
	}
}

// TestMaxRetriesBound: with every attempt guaranteed to crash, each job is
// retried exactly MaxRetries times and then permanently failed — requeues
// never exceed the budget, and a budget of zero means no retries.
func TestMaxRetriesBound(t *testing.T) {
	const n = 8
	for _, maxRetries := range []int{2, 0} {
		cfg := fault.Config{CrashProb: 1, MaxRetries: maxRetries, Backoff: 10, Seed: 5}
		e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs"), Faults: cfg})
		jobs := make([]*job.Job, n)
		for i := range jobs {
			// TrueRuntime == ReqWalltime so a crash (drawn strictly inside the
			// walltime) always lands before completion.
			jobs[i] = jb(int64(i+1), computeApp, 1, des.Duration(10*i), 1000, 1000)
		}
		if err := e.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		r := e.Result()
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}

		if r.FailedJobs != n {
			t.Fatalf("max %d: failed jobs = %d, want all %d", maxRetries, r.FailedJobs, n)
		}
		if want := n * maxRetries; r.Requeues != want {
			t.Fatalf("requeues = %d, want exactly %d (%d jobs × %d retries)",
				r.Requeues, want, n, maxRetries)
		}
		for _, j := range jobs {
			if j.State() != job.Failed {
				t.Fatalf("max %d: job %d state = %v, want FAILED", maxRetries, j.ID, j.State())
			}
			if got := j.Requeues(); got != maxRetries+1 {
				t.Fatalf("job %d suffered %d evictions, want %d (retry budget + final)",
					j.ID, got, maxRetries+1)
			}
			if j.LostWork() <= 0 {
				t.Fatalf("max %d: job %d crashed %d times with no lost work", maxRetries, j.ID, j.Requeues())
			}
		}
		if e.Cluster().BusyThreads() != 0 {
			t.Fatalf("max %d: threads leaked after retries exhausted", maxRetries)
		}
	}
}

// TestOperatorFaultControls: FailNode evicts residents and requeues them,
// RepairNode restores capacity, RequeueRunning evicts one job; the run then
// completes normally.
func TestOperatorFaultControls(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	j := jb(1, computeApp, 1, 0, 1000, 800)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	if j.State() != job.Running {
		t.Fatalf("job state = %v, want RUNNING", j.State())
	}
	ni := e.Running()[0].NodeIDs[0]
	if err := e.FailNode(ni); err != nil {
		t.Fatal(err)
	}
	if j.State() != job.Pending {
		t.Fatalf("victim state = %v, want PENDING after node failure", j.State())
	}
	if err := e.FailNode(ni); err == nil {
		t.Fatal("double FailNode succeeded")
	}
	if err := e.RepairNode(ni); err != nil {
		t.Fatal(err)
	}
	if err := e.RepairNode(ni); err == nil {
		t.Fatal("double RepairNode succeeded")
	}
	e.RunAll()
	if j.State() != job.Finished {
		t.Fatalf("job state = %v, want FINISHED after requeue", j.State())
	}
	if j.Requeues() != 1 || j.LostWork() <= 0 {
		t.Fatalf("requeues=%d lost=%g, want 1 eviction with charged loss",
			j.Requeues(), j.LostWork())
	}
	r := e.Result()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.MeanRescheduleSeconds <= 0 {
		t.Fatalf("mean reschedule = %g, want positive after a requeue", r.MeanRescheduleSeconds)
	}
}
