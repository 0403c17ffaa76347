package sched

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
)

// Synthetic apps with clean bottleneck profiles.
var (
	computeApp = app.Synthetic("cpu", app.StressVector{0.92, 0.30, 0.30, 0.20}, 200, 1000)
	membwApp   = app.Synthetic("bw", app.StressVector{0.40, 0.92, 0.40, 0.25}, 200, 1000)
	hugeMemApp = app.Synthetic("bigmem", app.StressVector{0.40, 0.60, 0.40, 0.25}, 900, 1000)
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes: 8, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1000,
	})
}

var nextTestJobID cluster.JobID = 1

func mkJob(a app.Model, nodes int, wall des.Duration) *job.Job {
	id := nextTestJobID
	nextTestJobID++
	return &job.Job{
		ID: id, Name: a.Name, App: a, Nodes: nodes,
		ReqWalltime: wall, TrueRuntime: wall, Submit: 0,
	}
}

func mkCtx(c *cluster.Cluster, queue []*job.Job, running []*RunningJob) *Context {
	return &Context{
		Now:     0,
		Cluster: c,
		Queue:   queue,
		Running: running,
		Inter:   interference.Default(),
		Share:   DefaultShareConfig(),
	}
}

// run starts a job exclusively on the given nodes and returns its RunningJob
// record, committing the allocation to the cluster.
func run(t *testing.T, c *cluster.Cluster, j *job.Job, nodes []int, end des.Time) *RunningJob {
	t.Helper()
	if err := c.Allocate(c.ExclusivePlacement(j.ID, nodes, j.App.MemPerNodeMB)); err != nil {
		t.Fatalf("allocate running job: %v", err)
	}
	j.Start(0)
	return &RunningJob{
		Job: j, NodeIDs: nodes, Exclusive: true,
		NominalEnd: end, PredictedEnd: end, Rate: 1,
	}
}

// runLayer starts a job on the primary layer of the given nodes (sharing
// world) and returns its record.
func runLayer(t *testing.T, c *cluster.Cluster, j *job.Job, nodes []int, end des.Time) *RunningJob {
	t.Helper()
	if err := c.Allocate(c.LayerPlacement(j.ID, nodes, cluster.PrimaryLayer, j.App.MemPerNodeMB)); err != nil {
		t.Fatalf("allocate layer job: %v", err)
	}
	j.Start(0)
	return &RunningJob{
		Job: j, NodeIDs: nodes, Exclusive: false,
		NominalEnd: end, PredictedEnd: end, Rate: 1,
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, DefaultShareConfig())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := New("nope", ShareConfig{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFCFSStartsInOrder(t *testing.T) {
	c := testCluster()
	q := []*job.Job{mkJob(computeApp, 3, 100), mkJob(membwApp, 4, 100), mkJob(computeApp, 2, 100)}
	dec := (FCFS{}).Schedule(mkCtx(c, q, nil))
	// 3+4 fit in 8 nodes; the 2-node job must NOT start (head-of-line, only
	// 1 node left).
	if len(dec) != 2 {
		t.Fatalf("FCFS started %d jobs, want 2", len(dec))
	}
	if dec[0].Job != q[0] || dec[1].Job != q[1] {
		t.Fatal("FCFS started jobs out of order")
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	c := testCluster()
	// One node busy, so the full-machine head is blocked (but servable in
	// principle); strict FCFS must not start anything behind it.
	rj := mkJob(computeApp, 1, 1000)
	running := []*RunningJob{run(t, c, rj, []int{0}, 1000)}
	q := []*job.Job{mkJob(computeApp, 8, 100), mkJob(membwApp, 1, 100)}
	dec := (FCFS{}).Schedule(mkCtx(c, q, running))
	if len(dec) != 0 {
		t.Fatalf("FCFS started %d jobs behind a blocked head, want 0", len(dec))
	}
}

func TestPoliciesSkipUnfittableJobs(t *testing.T) {
	// Jobs that can never run (too many nodes, or per-node memory beyond
	// node capacity) must be skipped by every policy rather than deadlock
	// the queue.
	c := testCluster()
	tooBig := mkJob(computeApp, 9, 100) // 9 > 8 nodes
	bigMemApp := app.Synthetic("huge", app.StressVector{0.5, 0.5, 0.5, 0.5}, 5000, 1000)
	tooFat := mkJob(bigMemApp, 1, 100) // 5000 MB > 1000 MB nodes
	ok := mkJob(membwApp, 1, 100)
	q := []*job.Job{tooBig, tooFat, ok}
	for _, name := range Names() {
		pol, err := New(name, DefaultShareConfig())
		if err != nil {
			t.Fatal(err)
		}
		dec := pol.Schedule(mkCtx(testCluster(), q, nil))
		if len(dec) != 1 || dec[0].Job != ok {
			t.Fatalf("%s decisions = %d, want just the fitting job", name, len(dec))
		}
	}
	_ = c
}

func TestFirstFitSkipsBlockedHead(t *testing.T) {
	c := testCluster()
	q := []*job.Job{mkJob(computeApp, 9, 100), mkJob(membwApp, 2, 100)}
	dec := (FirstFit{}).Schedule(mkCtx(c, q, nil))
	if len(dec) != 1 || dec[0].Job != q[1] {
		t.Fatalf("FirstFit decisions = %v, want just the 2-node job", dec)
	}
}

func TestDecisionsAreCommittable(t *testing.T) {
	// Whatever a policy returns must be allocatable as-is.
	c := testCluster()
	q := []*job.Job{mkJob(computeApp, 3, 100), mkJob(membwApp, 5, 100)}
	for _, dec := range (FirstFit{}).Schedule(mkCtx(c, q, nil)) {
		if err := c.Allocate(dec.Placement); err != nil {
			t.Fatalf("decision not committable: %v", err)
		}
	}
	if c.BusyNodes() != 8 {
		t.Fatalf("BusyNodes = %d, want 8", c.BusyNodes())
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	c := testCluster()
	// Running: 6 nodes until t=1000. Queue: head needs 8 (blocked until
	// 1000), then a short 2-node job (wall 500 ≤ shadow) → backfills.
	rj := mkJob(computeApp, 6, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3, 4, 5}, 1000)}
	head := mkJob(membwApp, 8, 1000)
	short := mkJob(computeApp, 2, 500)
	dec := (EASY{}).Schedule(mkCtx(c, []*job.Job{head, short}, running))
	if len(dec) != 1 || dec[0].Job != short {
		t.Fatalf("EASY decisions = %+v, want backfilled short job", dec)
	}
}

func TestEASYRefusesDelayingBackfill(t *testing.T) {
	c := testCluster()
	rj := mkJob(computeApp, 6, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3, 4, 5}, 1000)}
	head := mkJob(membwApp, 8, 1000)
	// Long 2-node job (wall 1500 > shadow=1000) would hold 2 of the 8 nodes
	// the head needs at t=1000 → must NOT backfill.
	long := mkJob(computeApp, 2, 1500)
	dec := (EASY{}).Schedule(mkCtx(c, []*job.Job{head, long}, running))
	if len(dec) != 0 {
		t.Fatalf("EASY backfilled a head-delaying job: %+v", dec)
	}
}

func TestEASYStartsHeadWhenFits(t *testing.T) {
	c := testCluster()
	q := []*job.Job{mkJob(computeApp, 8, 100)}
	dec := (EASY{}).Schedule(mkCtx(c, q, nil))
	if len(dec) != 1 || dec[0].Job != q[0] {
		t.Fatal("EASY did not start a fitting head")
	}
}

func TestConservativeHonorsAllReservations(t *testing.T) {
	c := testCluster()
	rj := mkJob(computeApp, 6, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3, 4, 5}, 1000)}
	// Queue: J1 needs 8 (reserved at 1000, runs 1000..2000).
	// J2 needs 4, wall 1500 (reserved at 2000).
	// J3 needs 2, wall 800: under EASY it could start (doesn't delay J1);
	// conservative must also check J2's reservation — J3 on 2 idle nodes
	// until t=800 doesn't touch J2's start at 2000 → starts.
	j1 := mkJob(membwApp, 8, 1000)
	j2 := mkJob(computeApp, 4, 1500)
	j3 := mkJob(membwApp, 2, 800)
	dec := (Conservative{}).Schedule(mkCtx(c, []*job.Job{j1, j2, j3}, running))
	if len(dec) != 1 || dec[0].Job != j3 {
		t.Fatalf("conservative decisions = %+v, want just j3", dec)
	}
}

func TestConservativeBlocksWhatEASYAllows(t *testing.T) {
	// A backfill that delays the SECOND queued job is legal under EASY but
	// not under conservative.
	c := testCluster()
	rj := mkJob(computeApp, 4, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3}, 1000)}
	// 4 idle nodes; 4 more release at t=1000.
	// Head needs 6, wall 1000 → shadow 1000, reserved [1000, 2000), leaving
	// 2 nodes free in that window.
	// j2 needs 7, wall 1000 → conservative reserves it at t=2000 (head done).
	// j3 needs 2, wall 2500:
	//   EASY (head reservation only): free ≥ 2 on [0, 2500) → backfills.
	//   Conservative (j2 reserved too): only 1 node free on [2000, 2500) →
	//   j3 would delay j2 → refused.
	head := mkJob(membwApp, 6, 1000)
	j2 := mkJob(computeApp, 7, 1000)
	j3 := mkJob(membwApp, 2, 2500)
	queue := []*job.Job{head, j2, j3}

	easyDec := (EASY{}).Schedule(mkCtx(c, queue, running))
	if len(easyDec) != 1 || easyDec[0].Job != j3 {
		t.Fatalf("EASY decisions = %+v, want j3 backfilled", easyDec)
	}
	consDec := (Conservative{}).Schedule(mkCtx(c, queue, running))
	if len(consDec) != 0 {
		t.Fatalf("conservative decisions = %+v, want none (j3 delays j2)", consDec)
	}
}

func TestShareFirstFitCoAllocatesComplementaryPair(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000) // occupies all nodes' primary layers
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest := mkJob(computeApp, 2, 500)
	dec := (ShareFirstFit{Config: DefaultShareConfig()}).Schedule(
		mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 1 {
		t.Fatalf("ShareFirstFit made %d decisions, want 1 co-allocation", len(dec))
	}
	if !dec[0].Shared {
		t.Fatal("decision not marked shared")
	}
	if dec[0].EstimatedRate >= 1 || dec[0].EstimatedRate <= 0 {
		t.Fatalf("EstimatedRate = %g, want in (0,1)", dec[0].EstimatedRate)
	}
	if err := c.Allocate(dec[0].Placement); err != nil {
		t.Fatalf("co-allocation not committable: %v", err)
	}
	if c.SharedNodes() != 2 {
		t.Fatalf("SharedNodes = %d, want 2", c.SharedNodes())
	}
}

func TestShareFirstFitRejectsClashingPair(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	// Another bandwidth-saturating job: complementarity ≈ 1-(0.92+0.92-1) =
	// 0.16 < 0.40 threshold → no co-allocation, and no idle nodes → no start.
	guest := mkJob(membwApp, 2, 500)
	dec := (ShareFirstFit{Config: DefaultShareConfig()}).Schedule(
		mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 0 {
		t.Fatalf("ShareFirstFit co-allocated a clashing pair: %+v", dec)
	}
}

func TestShareFirstFitMemoryGuard(t *testing.T) {
	c := testCluster()
	host := mkJob(hugeMemApp, 8, 1000) // 900 MB of 1000 MB per node
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest := mkJob(computeApp, 2, 500) // needs 200 MB > 100 free
	dec := (ShareFirstFit{Config: DefaultShareConfig()}).Schedule(
		mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 0 {
		t.Fatalf("memory guard failed: %+v", dec)
	}
}

func TestShareFirstFitMaxDegree(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest1 := mkJob(computeApp, 8, 500)
	cfg := DefaultShareConfig()
	p := ShareFirstFit{Config: cfg}
	ctx := mkCtx(c, []*job.Job{guest1}, running)
	dec := p.Schedule(ctx)
	if len(dec) != 1 {
		t.Fatalf("first guest not placed")
	}
	if err := c.Allocate(dec[0].Placement); err != nil {
		t.Fatal(err)
	}
	guest1.Start(0)
	running = append(running, &RunningJob{
		Job: guest1, NodeIDs: dec[0].Placement.NodeIDs(),
		NominalEnd: 500, PredictedEnd: 700, Rate: 0.7,
	})
	// All nodes now have 2 jobs (degree = MaxDegree) and no free layer.
	guest2 := mkJob(computeApp, 1, 100)
	dec2 := p.Schedule(mkCtx(c, []*job.Job{guest2}, running))
	if len(dec2) != 0 {
		t.Fatalf("third tenant admitted beyond MaxDegree: %+v", dec2)
	}
}

func TestShareFirstFitPairingAwareOrdering(t *testing.T) {
	c := testCluster()
	// Two hosts: a bandwidth job on node 0, a compute job on node 1.
	bwHost := mkJob(membwApp, 1, 1000)
	cpuHost := mkJob(computeApp, 1, 1000)
	running := []*RunningJob{
		runLayer(t, c, bwHost, []int{0}, 1000),
		runLayer(t, c, cpuHost, []int{1}, 1000),
	}
	// Incoming compute job must pick node 0 (bandwidth host) when pairing-
	// aware: complementary beats clashing.
	guest := mkJob(computeApp, 1, 500)
	cfg := DefaultShareConfig()
	cfg.MinComplementarity = 0 // admit both so ordering decides
	cfg.PreferShared = true
	dec := (ShareFirstFit{Config: cfg}).Schedule(mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 1 {
		t.Fatal("guest not placed")
	}
	if got := dec[0].Placement.Nodes[0].Node; got != 0 {
		t.Fatalf("pairing-aware placement chose node %d, want 0 (complementary host)", got)
	}
}

func TestShareFirstFitPreferSharedOff(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 1, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0}, 1000)}
	guest := mkJob(computeApp, 1, 500)
	cfg := DefaultShareConfig()
	cfg.PreferShared = false
	dec := (ShareFirstFit{Config: cfg}).Schedule(mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 1 {
		t.Fatal("guest not placed")
	}
	if dec[0].Shared {
		t.Fatal("PreferShared=false still co-allocated despite idle nodes")
	}
}

func TestShareFirstFitDisabledDegradesToFirstFit(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest := mkJob(computeApp, 2, 500)
	dec := (ShareFirstFit{}).Schedule(mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 0 {
		t.Fatalf("disabled sharing still placed a job: %+v", dec)
	}
	// With idle nodes it starts what first fit starts, on whole nodes.
	c = testCluster()
	running = []*RunningJob{run(t, c, mkJob(membwApp, 3, 1000), []int{0, 1, 2}, 1000)}
	q := []*job.Job{mkJob(computeApp, 6, 500), mkJob(computeApp, 2, 500), mkJob(membwApp, 3, 500)}
	dec = (ShareFirstFit{}).Schedule(mkCtx(c, q, running))
	want := refFirstFit(mkCtx(c, q, running), false)
	if len(want) != 2 || decisionSignature(dec) != decisionSignature(want) {
		t.Fatalf("disabled ShareFirstFit planned\n%s, first fit\n%s", decisionSignature(dec), decisionSignature(want))
	}
}

func TestShareBackfillCoAllocatesWithoutDelayingHead(t *testing.T) {
	c := testCluster()
	// Host A holds nodes 0–5 until t=2000; host B holds nodes 6–7 until
	// t=500. The head needs all 8 nodes → shadow 2000 (host A's release
	// binds). Co-allocating the guest on host B's nodes inflates B's end to
	// ≈ 500/rate ≪ 2000, so the head is not delayed; co-allocating on
	// host A would push A past the shadow and must be avoided. The policy
	// must therefore place the guest on nodes 6 and 7.
	hostA := mkJob(membwApp, 6, 3000)
	hostB := mkJob(membwApp, 2, 1000)
	running := []*RunningJob{
		runLayer(t, c, hostA, []int{0, 1, 2, 3, 4, 5}, 2000),
		runLayer(t, c, hostB, []int{6, 7}, 500),
	}
	head := mkJob(membwApp, 8, 1000)
	guest := mkJob(computeApp, 2, 400)
	cfg := DefaultShareConfig()
	dec := (ShareBackfill{Config: cfg}).Schedule(mkCtx(c, []*job.Job{head, guest}, running))
	if len(dec) != 1 || dec[0].Job != guest || !dec[0].Shared {
		t.Fatalf("decisions = %+v, want guest co-allocated", dec)
	}
	for _, np := range dec[0].Placement.Nodes {
		if np.Node != 6 && np.Node != 7 {
			t.Fatalf("guest placed on node %d, want host B's nodes (6, 7)", np.Node)
		}
	}
}

func TestShareBackfillGuardRejectsHeadDelay(t *testing.T) {
	c := testCluster()
	// Host ends exactly at the shadow time; any slowdown pushes it past →
	// the inflation guard must reject the co-allocation.
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	head := mkJob(membwApp, 8, 1000)
	guest := mkJob(computeApp, 2, 400)
	cfg := DefaultShareConfig()
	dec := (ShareBackfill{Config: cfg}).Schedule(mkCtx(c, []*job.Job{head, guest}, running))
	if len(dec) != 0 {
		t.Fatalf("accounting guard failed: %+v", dec)
	}
	// Ablation: with accounting off, the co-allocation goes through (and
	// the head will be delayed — the broken behaviour the ablation shows).
	cfg.InflationAccounting = false
	dec = (ShareBackfill{Config: cfg}).Schedule(mkCtx(c, []*job.Job{head, guest}, running))
	if len(dec) != 1 {
		t.Fatalf("accounting-off ablation did not co-allocate: %+v", dec)
	}
}

func TestShareBackfillDisabledDegradesToEASY(t *testing.T) {
	c := testCluster()
	rj := mkJob(computeApp, 6, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3, 4, 5}, 1000)}
	head := mkJob(membwApp, 8, 1000)
	short := mkJob(computeApp, 2, 500)
	dec := (ShareBackfill{}).Schedule(mkCtx(c, []*job.Job{head, short}, running))
	if len(dec) != 1 || dec[0].Job != short || dec[0].Shared {
		t.Fatalf("disabled ShareBackfill ≠ EASY: %+v", dec)
	}
	want, _ := refBackfillExclusive(mkCtx(c, []*job.Job{head, short}, running).withShare(ShareConfig{}), 1)
	if got, want := decisionSignature(dec), decisionSignature(want); got != want {
		t.Fatalf("disabled ShareBackfill planned\n%s, EASY\n%s", got, want)
	}
}

func TestShareBackfillStartsFittingJobsImmediately(t *testing.T) {
	c := testCluster()
	q := []*job.Job{mkJob(computeApp, 4, 100), mkJob(membwApp, 4, 100)}
	dec := (ShareBackfill{Config: DefaultShareConfig()}).Schedule(mkCtx(c, q, nil))
	if len(dec) != 2 {
		t.Fatalf("started %d jobs on an idle cluster, want 2", len(dec))
	}
	for _, d := range dec {
		if d.Shared {
			t.Fatal("job marked shared on an idle cluster")
		}
	}
}

func TestSharePlacementUsesSecondaryLayer(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 1, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0}, 1000)}
	guest := mkJob(computeApp, 1, 500)
	cfg := DefaultShareConfig()
	dec := (ShareFirstFit{Config: cfg}).Schedule(mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 1 || !dec[0].Shared {
		t.Fatal("guest not co-allocated")
	}
	// The placement must bind the SMT sibling threads (odd indices with
	// threads-per-core 2).
	for _, th := range dec[0].Placement.Nodes[0].Threads {
		if th%2 != 1 {
			t.Fatalf("co-allocation bound thread %d, want secondary layer (odd)", th)
		}
	}
}

func TestShareConservativeBasics(t *testing.T) {
	// Degraded (disabled) form equals Conservative.
	c := testCluster()
	rj := mkJob(computeApp, 6, 2000)
	running := []*RunningJob{run(t, c, rj, []int{0, 1, 2, 3, 4, 5}, 1000)}
	head := mkJob(membwApp, 8, 1000)
	short := mkJob(computeApp, 2, 500)
	dec := (ShareConservative{}).Schedule(mkCtx(c, []*job.Job{head, short}, running))
	want, _ := refBackfillExclusive(mkCtx(c, []*job.Job{head, short}, running).withShare(ShareConfig{}), 2)
	if len(want) != 1 || decisionSignature(dec) != decisionSignature(want) {
		t.Fatalf("disabled ShareConservative planned\n%s, Conservative\n%s", decisionSignature(dec), decisionSignature(want))
	}
}

func TestShareConservativeCoAllocates(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 500)}
	guest := mkJob(computeApp, 2, 300)
	dec := (ShareConservative{Config: DefaultShareConfig()}).Schedule(
		mkCtx(c, []*job.Job{guest}, running))
	if len(dec) != 1 || !dec[0].Shared {
		t.Fatalf("decisions = %+v, want one co-allocation", dec)
	}
}

func TestShareConservativeGuardsAllReservations(t *testing.T) {
	// Two hosts; the head's shadow binds on host A, a SECOND reservation
	// binds on host B. A co-allocation that would delay host B must be
	// rejected by ShareConservative even though ShareBackfill (guarding
	// only the head) would allow it.
	c := testCluster()
	hostA := mkJob(membwApp, 6, 3000)
	hostB := mkJob(membwApp, 2, 1000)
	running := []*RunningJob{
		runLayer(t, c, hostA, []int{0, 1, 2, 3, 4, 5}, 2000),
		runLayer(t, c, hostB, []int{6, 7}, 500),
	}
	// head needs 8 → shadow 2000 (host A binds). j2 needs 2 nodes and can
	// start at 500 when host B releases → its reservation at 500 depends on
	// host B. The guest co-allocating on host B would push B past 500.
	head := mkJob(membwApp, 8, 1000)
	j2 := mkJob(membwApp, 2, 1000)
	guest := mkJob(computeApp, 2, 400)
	cfg := DefaultShareConfig()
	queue := []*job.Job{head, j2, guest}

	easyDec := (ShareBackfill{Config: cfg}).Schedule(mkCtx(c, queue, running))
	consDec := (ShareConservative{Config: cfg}).Schedule(mkCtx(c, queue, running))
	// ShareBackfill guards only the head (shadow 2000): guest lands on
	// host B (end 500/rate < 2000) → allowed.
	if len(easyDec) != 1 || !easyDec[0].Shared {
		t.Fatalf("ShareBackfill decisions = %+v, want guest co-allocated", easyDec)
	}
	// ShareConservative also guards j2's reservation at 500: the guest on
	// host B would postpone it → rejected, and host A offends the head's
	// shadow → nothing starts.
	if len(consDec) != 0 {
		t.Fatalf("ShareConservative decisions = %+v, want none", consDec)
	}
}

func TestMinEstimatedRateGate(t *testing.T) {
	c := testCluster()
	host := mkJob(membwApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest := mkJob(computeApp, 2, 500)
	cfg := DefaultShareConfig()
	// The complementary pair's rates are ≈0.88/0.84; a floor above that
	// must block the co-allocation, a floor below must admit it.
	cfg.MinEstimatedRate = 0.95
	if dec := (ShareFirstFit{Config: cfg}).Schedule(mkCtx(c, []*job.Job{guest}, running)); len(dec) != 0 {
		t.Fatalf("rate floor 0.95 admitted the pair: %+v", dec)
	}
	cfg.MinEstimatedRate = 0.5
	if dec := (ShareFirstFit{Config: cfg}).Schedule(mkCtx(c, []*job.Job{guest}, running)); len(dec) != 1 {
		t.Fatal("rate floor 0.5 blocked an acceptable pair")
	}
}

func TestMinEstimatedRateHonorsMeasuredPairs(t *testing.T) {
	// A measured matrix declaring the pair terrible must flow through the
	// gate even when the analytic model approves.
	c := testCluster()
	hostApp := app.Synthetic("hostapp", app.StressVector{0.40, 0.92, 0.40, 0.25}, 200, 1000)
	guestApp := app.Synthetic("guestapp", app.StressVector{0.92, 0.30, 0.30, 0.20}, 200, 1000)
	host := mkJob(hostApp, 8, 1000)
	running := []*RunningJob{runLayer(t, c, host, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1000)}
	guest := mkJob(guestApp, 2, 500)

	inter := interference.Default()
	if err := inter.SetMeasured([]interference.MeasuredPair{
		{A: "hostapp", B: "guestapp", RateA: 0.2, RateB: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultShareConfig()
	cfg.MinEstimatedRate = 0.5
	ctx := mkCtx(c, []*job.Job{guest}, running)
	ctx.Inter = inter
	if dec := (ShareFirstFit{Config: cfg}).Schedule(ctx); len(dec) != 0 {
		t.Fatalf("measured-bad pair admitted: %+v", dec)
	}
}
