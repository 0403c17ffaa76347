package sim

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/topology"
)

var (
	computeApp = app.Synthetic("cpu", app.StressVector{0.92, 0.30, 0.30, 0.20}, 200, 1000)
	membwApp   = app.Synthetic("bw", app.StressVector{0.40, 0.92, 0.40, 0.25}, 200, 1000)
)

func smallCluster() cluster.Config {
	return cluster.Config{Nodes: 4, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1000}
}

func mustPolicy(t *testing.T, name string) sched.Policy {
	t.Helper()
	p, err := sched.New(name, sched.DefaultShareConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func jb(id int64, a app.Model, nodes int, submit, wall, runtime des.Duration) *job.Job {
	return &job.Job{
		ID: cluster.JobID(id), Name: a.Name, App: a, Nodes: nodes,
		Submit: des.Time(submit), ReqWalltime: wall, TrueRuntime: runtime,
	}
}

func TestSingleJobExactCompletion(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	j := jb(1, computeApp, 2, 0, 1000, 800)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if j.State() != job.Finished {
		t.Fatalf("job state = %v", j.State())
	}
	if j.StartTime() != 0 || j.EndTime() != 800 {
		t.Fatalf("job ran %v→%v, want 0→800", j.StartTime(), j.EndTime())
	}
	r := e.Result()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CompEfficiency-1) > 1e-9 {
		t.Fatalf("CE = %g, want exactly 1 for exclusive run", r.CompEfficiency)
	}
	if r.Makespan != 800 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
	// Busy: 2 nodes × 800s.
	if math.Abs(r.BusyNodeSeconds-1600) > 1e-9 {
		t.Fatalf("busy node-seconds = %g", r.BusyNodeSeconds)
	}
	if e.Cluster().BusyThreads() != 0 {
		t.Fatal("resources leaked after completion")
	}
}

func TestFCFSQueueing(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	j1 := jb(1, computeApp, 4, 0, 1000, 1000)
	j2 := jb(2, computeApp, 4, 0, 500, 500)
	if err := e.SubmitAll([]*job.Job{j1, j2}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if j1.StartTime() != 0 {
		t.Fatalf("j1 started at %v", j1.StartTime())
	}
	if j2.StartTime() != 1000 {
		t.Fatalf("j2 started at %v, want 1000 (after j1)", j2.StartTime())
	}
	if j2.WaitTime() != 1000 {
		t.Fatalf("j2 wait = %v", j2.WaitTime())
	}
}

func TestRejectOversizedJob(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	j := jb(1, computeApp, 5, 0, 100, 100)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(e.Rejected()) != 1 || j.State() != job.Cancelled {
		t.Fatalf("oversized job not rejected: state=%v", j.State())
	}
}

func TestSubmitInvalidJobErrors(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	j := jb(1, computeApp, 0, 0, 100, 100) // zero nodes
	if err := e.Submit(j); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestSharingSlowsAndRecovers(t *testing.T) {
	// Host (bw) starts first on all 4 nodes' primary layers; guest (cpu)
	// co-allocates. While shared both run below rate 1; when the guest
	// finishes the host recovers to rate 1 and its completion moves earlier
	// again.
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "sharebackfill")})
	host := jb(1, membwApp, 4, 0, 4000, 2000)
	guest := jb(2, computeApp, 4, 10, 1000, 500)
	if err := e.SubmitAll([]*job.Job{host, guest}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if host.State() != job.Finished || guest.State() != job.Finished {
		t.Fatalf("states: host=%v guest=%v", host.State(), guest.State())
	}
	if !guest.EverShared() || !host.EverShared() {
		t.Fatal("co-located jobs not marked shared")
	}
	// Guest started immediately at its submit (co-allocation).
	if guest.StartTime() != 10 {
		t.Fatalf("guest started at %v, want 10", guest.StartTime())
	}
	// Both stretched beyond dedicated runtime but finished.
	if host.Stretch() <= 1 || guest.Stretch() <= 1 {
		t.Fatalf("stretches: host=%g guest=%g, want >1", host.Stretch(), guest.Stretch())
	}
	// The host must finish sooner than a fully-shared projection (it
	// recovers after the guest leaves): end < 2000 / hostSharedRate.
	rates := e.inter.NodeRates([]app.StressVector{membwApp.Stress, computeApp.Stress})
	fullyShared := des.Time(float64(host.TrueRuntime) / rates[0])
	if host.EndTime() >= fullyShared {
		t.Fatalf("host end %v did not recover (fully-shared bound %v)", host.EndTime(), fullyShared)
	}
	// And the shared run must beat back-to-back exclusive execution.
	r := e.Result()
	if r.CompEfficiency <= 1 {
		t.Fatalf("CE = %g, want > 1 for a complementary pair", r.CompEfficiency)
	}
	if r.SharedNodeSeconds <= 0 {
		t.Fatal("no shared node-seconds recorded")
	}
}

func TestEASYBackfillEndToEnd(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	// j1 takes 3 nodes 0→1000. j2 (head) needs 4 → blocked until 1000.
	// j3 needs 1 node for 500 ≤ shadow → backfills at 0.
	j1 := jb(1, computeApp, 3, 0, 1000, 1000)
	j2 := jb(2, membwApp, 4, 1, 1000, 1000)
	j3 := jb(3, computeApp, 1, 2, 500, 500)
	if err := e.SubmitAll([]*job.Job{j1, j2, j3}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if j3.StartTime() != 2 {
		t.Fatalf("j3 started at %v, want 2 (backfilled)", j3.StartTime())
	}
	if j2.StartTime() != 1000 {
		t.Fatalf("j2 started at %v, want 1000", j2.StartTime())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (des.Time, float64, int) {
		e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "sharefirstfit")})
		jobs := []*job.Job{
			jb(1, membwApp, 2, 0, 3000, 1500),
			jb(2, computeApp, 2, 5, 2000, 900),
			jb(3, computeApp, 1, 7, 1000, 400),
			jb(4, membwApp, 3, 11, 2500, 1200),
			jb(5, computeApp, 2, 13, 1500, 700),
		}
		if err := e.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		r := e.Result()
		return r.Makespan, r.CompEfficiency, r.Finished
	}
	m1, ce1, f1 := runOnce()
	m2, ce2, f2 := runOnce()
	if m1 != m2 || ce1 != ce2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%g,%d) vs (%v,%g,%d)", m1, ce1, f1, m2, ce2, f2)
	}
}

func TestProgressConservationAcrossChurn(t *testing.T) {
	// Many overlapping jobs with sharing: every job must finish with its
	// full service demand delivered (job.Finish panics otherwise), and all
	// resources must be free at the end.
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "sharefirstfit")})
	var jobs []*job.Job
	apps := []app.Model{computeApp, membwApp}
	for i := 0; i < 30; i++ {
		a := apps[i%2]
		jobs = append(jobs, jb(int64(i+1), a, 1+i%3, des.Duration(i*97), 3000, des.Duration(300+100*(i%7))))
	}
	if err := e.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	for _, j := range jobs {
		if j.State() != job.Finished {
			t.Fatalf("job %d not finished: %v", j.ID, j.State())
		}
	}
	if e.Cluster().BusyThreads() != 0 {
		t.Fatal("threads leaked")
	}
	if e.QueueLen() != 0 || e.RunningLen() != 0 {
		t.Fatal("queue/running not drained")
	}
	r := e.Result()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Finished != 30 {
		t.Fatalf("finished %d, want 30", r.Finished)
	}
}

func TestSharingBeatsExclusiveOnComplementaryMix(t *testing.T) {
	// The paper's core claim in miniature: a complementary mix completes
	// sooner (and with higher CE) under ShareBackfill than under EASY.
	mkJobs := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 8; i++ {
			a := computeApp
			if i%2 == 0 {
				a = membwApp
			}
			jobs = append(jobs, jb(int64(i+1), a, 2, des.Duration(i), 2000, 1000))
		}
		return jobs
	}
	run := func(policy string) (des.Time, float64) {
		e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, policy)})
		if err := e.SubmitAll(mkJobs()); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		r := e.Result()
		return r.Makespan, r.CompEfficiency
	}
	exMakespan, exCE := run("easy")
	shMakespan, shCE := run("sharebackfill")
	if shMakespan >= exMakespan {
		t.Fatalf("sharing makespan %v not below exclusive %v", shMakespan, exMakespan)
	}
	if shCE <= exCE {
		t.Fatalf("sharing CE %g not above exclusive %g", shCE, exCE)
	}
	if math.Abs(exCE-1) > 1e-9 {
		t.Fatalf("exclusive CE = %g, want exactly 1", exCE)
	}
}

func TestTraceFn(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "fcfs")})
	var lines []string
	e.TraceFn = func(l string) { lines = append(lines, l) }
	if err := e.Submit(jb(1, computeApp, 1, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(lines) < 3 { // submit, start, finish
		t.Fatalf("trace produced %d lines, want ≥3", len(lines))
	}
}

func TestNewPanicsWithoutPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without policy did not panic")
		}
	}()
	New(Config{Cluster: smallCluster()})
}

func TestDecisionTimesRecorded(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	if err := e.Submit(jb(1, computeApp, 1, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if e.Result().DecisionNanos.N == 0 {
		t.Fatal("no decision times recorded")
	}
}

func TestStrictLimitsKillStretchedJobs(t *testing.T) {
	// Host (bw) and guest (cpu) co-locate; the host's request has almost no
	// slack, so the sharing-induced stretch pushes it past its walltime.
	// Under strict limits it must be killed; with extension it finishes.
	mk := func() []*job.Job {
		host := jb(1, membwApp, 4, 0, 2100, 2000) // 5% slack only
		guest := jb(2, computeApp, 4, 10, 2000, 1500)
		return []*job.Job{host, guest}
	}
	strict := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "sharebackfill"),
		StrictLimits: true})
	if err := strict.SubmitAll(mk()); err != nil {
		t.Fatal(err)
	}
	strict.RunAll()
	if len(strict.Killed()) != 1 {
		t.Fatalf("strict limits killed %d jobs, want 1", len(strict.Killed()))
	}
	killedJob := strict.Killed()[0]
	if killedJob.State() != job.Killed {
		t.Fatalf("killed job state = %v", killedJob.State())
	}
	// The kill fires exactly at the walltime limit.
	if got := killedJob.EndTime() - killedJob.StartTime(); got != 2100 {
		t.Fatalf("killed job ran %v, want exactly its 2100s limit", got)
	}
	r := strict.Result()
	if r.Killed != 1 || r.WastedNodeSeconds != 4*2100 {
		t.Fatalf("metrics killed/wasted = %d/%g", r.Killed, r.WastedNodeSeconds)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if strict.Cluster().BusyThreads() != 0 {
		t.Fatal("killed job leaked resources")
	}

	// Same workload with extension (default): everything finishes.
	relaxed := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "sharebackfill")})
	if err := relaxed.SubmitAll(mk()); err != nil {
		t.Fatal(err)
	}
	relaxed.RunAll()
	if len(relaxed.Killed()) != 0 {
		t.Fatalf("extension killed %d jobs, want 0", len(relaxed.Killed()))
	}
}

func TestStrictLimitsNeverKillDedicatedJobs(t *testing.T) {
	// Exclusive policies cannot stretch jobs, and TrueRuntime ≤ ReqWalltime,
	// so strict limits must never fire.
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy"), StrictLimits: true})
	var jobs []*job.Job
	for i := 0; i < 20; i++ {
		wall := des.Duration(500 + 50*i)
		jobs = append(jobs, jb(int64(i+1), computeApp, 1+i%4, des.Duration(i*31), wall, wall))
	}
	if err := e.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(e.Killed()) != 0 {
		t.Fatalf("dedicated jobs killed: %d", len(e.Killed()))
	}
	// Jobs whose runtime equals their walltime exactly must complete, not
	// be killed by the tie-breaking kill event.
	for _, j := range jobs {
		if j.State() != job.Finished {
			t.Fatalf("job %d state = %v", j.ID, j.State())
		}
	}
}

func TestShareConservativeEndToEnd(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "shareconservative")})
	var jobs []*job.Job
	for i := 0; i < 16; i++ {
		a := computeApp
		if i%2 == 0 {
			a = membwApp
		}
		jobs = append(jobs, jb(int64(i+1), a, 2, des.Duration(i*13), 2000, 900))
	}
	if err := e.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	r := e.Result()
	if r.Finished != 16 {
		t.Fatalf("finished %d of 16", r.Finished)
	}
	if r.CompEfficiency <= 1 {
		t.Fatalf("shareconservative CE = %g, want > 1 on complementary mix", r.CompEfficiency)
	}
}

func TestTopologyPenalizesScatteredSharing(t *testing.T) {
	// Two co-located network-leaning jobs spread across all leaf switches
	// must run slower with the interconnect model than without it.
	netApp := app.Synthetic("net", app.StressVector{0.40, 0.55, 0.30, 0.70}, 200, 1000)
	run := func(topo *topology.Topology) des.Time {
		cfg := cluster.Config{Nodes: 16, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1000}
		e := New(Config{Cluster: cfg, Policy: mustPolicy(t, "sharefirstfit"), Topo: topo})
		a := jb(1, netApp, 16, 0, 10000, 2000)
		b := jb(2, netApp, 16, 1, 10000, 2000)
		// Complementarity(net, net) = 1-(0.7+0.7-1) = 0.6 ≥ 0.4 → co-allocates.
		if err := e.SubmitAll([]*job.Job{a, b}); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		return a.EndTime()
	}
	topo := topology.Default(16) // 2 groups of 8
	flat := run(nil)
	contended := run(&topo)
	if contended <= flat {
		t.Fatalf("topology did not raise contention: flat end %v, topo end %v", flat, contended)
	}
}

func TestLocalityAwarePicksCompactNodes(t *testing.T) {
	// With half of each leaf busy, a locality-aware scheduler must place a
	// small job inside one leaf; a naive one (ascending IDs) scatters it.
	topo := topology.Topology{Groups: 2, NodesPerGroup: 4, UplinkPenalty: 0.6}
	mk := func(local bool) []int {
		cfg := cluster.Config{Nodes: 8, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 10000}
		e := New(Config{Cluster: cfg, Policy: mustPolicy(t, "easy"),
			Topo: &topo, LocalityAware: local})
		// Occupy nodes 0,1 (leaf 0) and 4,5,6 (leaf 1): idle = {2,3,7};
		// leaf 0 has 2 idle, leaf 1 has 1.
		blocker1 := jb(1, computeApp, 2, 0, 100000, 100000)
		blocker2 := jb(2, computeApp, 3, 1, 100000, 100000)
		probe := jb(3, computeApp, 2, 2, 1000, 500)
		if err := e.SubmitAll([]*job.Job{blocker1, blocker2, probe}); err != nil {
			t.Fatal(err)
		}
		e.Run(10)
		for _, r := range e.Running() {
			if r.Job.ID == 3 {
				return r.NodeIDs
			}
		}
		t.Fatal("probe job not running")
		return nil
	}
	compact := mk(true)
	if topo.Spread(compact) != 1 {
		t.Fatalf("locality-aware placement %v spans %d leaves, want 1", compact, topo.Spread(compact))
	}
}

func TestJobDependencies(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	parent := jb(1, computeApp, 2, 0, 1000, 1000)
	child := jb(2, computeApp, 2, 0, 500, 500)
	child.After = []cluster.JobID{1}
	grandchild := jb(3, computeApp, 1, 0, 200, 200)
	grandchild.After = []cluster.JobID{2}
	if err := e.SubmitAll([]*job.Job{parent, child, grandchild}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	// Even though 2 idle nodes were available at t=0, the child must wait
	// for the parent to finish at t=1000, and the grandchild for the child.
	if child.StartTime() != 1000 {
		t.Fatalf("child started at %v, want 1000 (after parent)", child.StartTime())
	}
	if grandchild.StartTime() != 1500 {
		t.Fatalf("grandchild started at %v, want 1500", grandchild.StartTime())
	}
	if len(e.heldJobs()) != 0 {
		t.Fatalf("held jobs remain: %d", len(e.heldJobs()))
	}
}

func TestDependencyOnFailedJobCancelsChain(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	doomed := jb(1, computeApp, 99, 0, 100, 100) // rejected: machine too small
	child := jb(2, computeApp, 1, 1, 100, 100)
	child.After = []cluster.JobID{1}
	grandchild := jb(3, computeApp, 1, 2, 100, 100)
	grandchild.After = []cluster.JobID{2}
	if err := e.SubmitAll([]*job.Job{doomed, child, grandchild}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if child.State() != job.Cancelled || grandchild.State() != job.Cancelled {
		t.Fatalf("dependents not cancelled: child=%v grandchild=%v",
			child.State(), grandchild.State())
	}
	if len(e.heldJobs()) != 0 {
		t.Fatal("cancelled dependents still held")
	}
}

// TestDependentOfArrivalCancelledJobIsCancelled: a job cancelled at its own
// arrival, because its dependency already failed, dooms the dependents held
// on it then and there. Job 3 is held on job 2 before job 2 arrives; job 2
// arrives after job 1 was rejected, so it is cancelled at arrival and job 3
// with it — not left held after RunAll.
func TestDependentOfArrivalCancelledJobIsCancelled(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	doomed := jb(1, computeApp, 99, 0, 100, 100) // rejected: machine too small
	grandchild := jb(3, computeApp, 1, 1, 100, 100)
	grandchild.After = []cluster.JobID{2}
	child := jb(2, computeApp, 1, 2, 100, 100)
	child.After = []cluster.JobID{1}
	if err := e.SubmitAll([]*job.Job{doomed, grandchild, child}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if child.State() != job.Cancelled || grandchild.State() != job.Cancelled {
		t.Fatalf("dependents not cancelled: child=%v grandchild=%v", child.State(), grandchild.State())
	}
	if held := e.heldJobs(); len(held) != 0 {
		t.Fatalf("%d job(s) still held after RunAll, first %v", len(held), held[0])
	}
}

func TestDependencyAlreadySatisfied(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	parent := jb(1, computeApp, 1, 0, 100, 100)
	late := jb(2, computeApp, 1, 500, 100, 100) // arrives after parent done
	late.After = []cluster.JobID{1}
	if err := e.SubmitAll([]*job.Job{parent, late}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if late.StartTime() != 500 {
		t.Fatalf("late job started at %v, want 500 (dep already met at arrival)", late.StartTime())
	}
}

func TestSchedIntervalBatchesPasses(t *testing.T) {
	// With a 100 s scheduling interval, a job submitted at t=10 onto an
	// idle machine must wait for the t=100 tick to start.
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy"),
		SchedInterval: 100})
	j := jb(1, computeApp, 1, 10, 500, 500)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if j.StartTime() != 100 {
		t.Fatalf("job started at %v, want 100 (next tick)", j.StartTime())
	}
	// A submission exactly on a tick boundary runs on that boundary.
	e2 := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy"),
		SchedInterval: 100})
	j2 := jb(1, computeApp, 1, 200, 500, 500)
	if err := e2.Submit(j2); err != nil {
		t.Fatal(err)
	}
	e2.RunAll()
	if j2.StartTime() != 200 {
		t.Fatalf("boundary job started at %v, want 200", j2.StartTime())
	}
}

func TestEngineAccessorsAndCancel(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	if e.pol.Name() != "easy" {
		t.Fatalf("Policy = %q", e.pol.Name())
	}
	blocker := jb(1, computeApp, 4, 0, 2000, 2000)
	victim := jb(2, computeApp, 4, 1, 1000, 1000)
	if err := e.SubmitAll([]*job.Job{blocker, victim}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %v", e.Now())
	}
	if len(e.Pending()) != 1 || e.Pending()[0].ID != 2 {
		t.Fatalf("Pending = %v", e.Pending())
	}
	if err := e.CancelPending(2); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelPending(2); err == nil {
		t.Fatal("double cancel accepted")
	}
	if err := e.CancelPending(1); err == nil {
		t.Fatal("cancelling a running job accepted")
	}
	e.RunAll()
	if len(e.Finished()) != 1 {
		t.Fatalf("Finished = %d", len(e.Finished()))
	}
	hist := e.History()
	if len(hist) != 1 || hist[0].Job != 1 || hist[0].Outcome != job.Finished {
		t.Fatalf("History = %+v", hist)
	}
	if len(hist[0].Nodes) != 4 || hist[0].Start != 0 || hist[0].End != 2000 {
		t.Fatalf("History record = %+v", hist[0])
	}

	// A requeued job waiting out its backoff is held, and cancellable: it
	// never runs again, and its cancelled release does not move the clock.
	e = New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	requeued := jb(1, computeApp, 1, 0, 1000, 1000)
	if err := e.Submit(requeued); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if err := e.RequeueRunning(1); err != nil {
		t.Fatal(err)
	}
	if held := e.heldJobs(); len(held) != 1 || held[0] != requeued || len(e.Pending()) != 0 {
		t.Fatalf("in backoff: Held = %v, Pending = %v; want the job held", held, e.Pending())
	}
	if err := e.CancelPending(1); err != nil {
		t.Fatalf("cancelling a job in backoff: %v", err)
	}
	e.RunAll()
	if rej := e.Rejected(); len(rej) != 1 || rej[0] != requeued || requeued.State() != job.Cancelled {
		t.Fatalf("Rejected = %v, state %v; want the job CANCELLED", rej, requeued.State())
	}
	if len(e.heldJobs()) != 0 || len(e.Finished()) != 0 || len(e.History()) != 0 {
		t.Fatalf("cancelled job ran or stayed held: Held %v, Finished %v", e.heldJobs(), e.Finished())
	}
	if e.Now() != 10 {
		t.Fatalf("RunAll ran the clock to %v, want 10: the backoff release still fired", e.Now())
	}

	// A job held on a dependency is cancellable, and its afterok dependents
	// are cancelled with it.
	e = New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	parent := jb(1, computeApp, 1, 0, 1000, 1000)
	child := jb(2, computeApp, 1, 0, 500, 500)
	child.After = []cluster.JobID{1}
	grandchild := jb(3, computeApp, 1, 0, 200, 200)
	grandchild.After = []cluster.JobID{2}
	if err := e.SubmitAll([]*job.Job{parent, child, grandchild}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(e.heldJobs()) != 2 {
		t.Fatalf("Held = %v, want the child and the grandchild", e.heldJobs())
	}
	if err := e.CancelPending(2); err != nil {
		t.Fatalf("cancelling a dependency-held job: %v", err)
	}
	if child.State() != job.Cancelled || grandchild.State() != job.Cancelled || len(e.heldJobs()) != 0 {
		t.Fatalf("child %v, grandchild %v, Held %v; want both CANCELLED and none held",
			child.State(), grandchild.State(), e.heldJobs())
	}
	e.RunAll()
	if parent.State() != job.Finished || len(e.Rejected()) != 2 {
		t.Fatalf("parent %v, Rejected %v; want the parent FINISHED and two rejected", parent.State(), e.Rejected())
	}
}

func TestSetQueueOrderReordersStarts(t *testing.T) {
	// Install a largest-first order: with both jobs queued behind a
	// blocker, the 3-node job must start before the earlier 1-node job.
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "firstfit")})
	e.SetQueueOrder(func(a, b *job.Job) bool {
		if a.Nodes != b.Nodes {
			return a.Nodes > b.Nodes
		}
		return a.ID < b.ID
	})
	blocker := jb(1, computeApp, 4, 0, 500, 500)
	small := jb(2, computeApp, 1, 1, 400, 400)
	large := jb(3, computeApp, 3, 2, 400, 400)
	if err := e.SubmitAll([]*job.Job{blocker, small, large}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if large.StartTime() > small.StartTime() {
		t.Fatalf("largest-first order ignored: large at %v, small at %v",
			large.StartTime(), small.StartTime())
	}
}

func TestKickSchedulesImmediately(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	e.Cluster().SetDrained(0, true)
	j := jb(1, computeApp, 4, 0, 500, 500)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if j.State() != job.Pending {
		t.Fatalf("job state with drained node = %v", j.State())
	}
	e.Cluster().SetDrained(0, false)
	e.Kick()
	if j.State() != job.Running {
		t.Fatalf("job state after Kick = %v", j.State())
	}
}

func TestSubmitAllStopsAtFirstError(t *testing.T) {
	e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy")})
	good := jb(1, computeApp, 1, 0, 100, 100)
	bad := jb(2, computeApp, 0, 0, 100, 100)
	if err := e.SubmitAll([]*job.Job{good, bad}); err == nil {
		t.Fatal("invalid job accepted by SubmitAll")
	}
}

// The workload that took the engine down at PR 17: fifty 3-node jobs of ~30
// years each on four nodes, submitted one by one the way the controller does
// (each submit settles before the next), every one inside the controller's
// per-job clock bound. Co-allocation gives them fractional rates, the queue
// carries the clock to t ≈ 3.5e10 s — where neighbouring float64 instants are
// 7.6 µs apart — and a completion event can no longer land within a
// microsecond of work: job.Finish panicked at the 38th job with 3.8 µs left.
func TestFarClockJobsFinish(t *testing.T) {
	e := New(Config{Cluster: cluster.Trinity(4), Policy: mustPolicy(t, "sharebackfill")})
	cat := app.Catalogue()
	jobs := make([]*job.Job, 50)
	for i := range jobs {
		jobs[i] = jb(int64(i+1), cat[i%len(cat)], 3, 0, 1e9, 0.937e9)
		if err := e.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now())
	}
	e.RunAll()
	if got := len(e.Finished()); got != len(jobs) {
		t.Fatalf("finished %d of %d jobs", got, len(jobs))
	}
	if e.Now() < 3e10 {
		t.Fatalf("clock only reached %g s; the test no longer exercises a far clock", float64(e.Now()))
	}
	shared := false
	for _, j := range jobs {
		shared = shared || j.EverShared()
		if d := j.DeliveredWork(); math.Abs(d-float64(j.TrueRuntime)) > 1e-4 {
			t.Fatalf("job %d delivered %g s of %g s", j.ID, d, float64(j.TrueRuntime))
		}
	}
	if !shared {
		t.Fatal("no job ever shared a node; the test no longer produces fractional rates")
	}
}
