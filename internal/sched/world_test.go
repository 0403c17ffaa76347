package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
)

// Differential (INV-10 across passes): one long-lived Context is driven
// through seeded world steps — jobs committed from its own decisions, jobs
// allocated and released by hand, nodes drained, failed and repaired, a job
// replaced by another under the same ID, planned ends edited in place, the
// share configuration and the co-run model swapped, the running set shuffled
// out of ID order for a step, more nodes drained and undrained than the
// cluster remembers changes for, the clock moved, and passes repeated on an
// unchanged world. After every step all three sharing policies' decisions on
// it must equal a fresh Context's, and so must those of the three baselines
// and of ShareBackfill with sharing off but a degree set, whose passes skip
// the world that the sharing passes after them patch. After each sharing
// pass everything its scratch carries from pass to pass must equal a fresh
// one's too: the residents of every node, the host nodes with their
// nodeInfo, each running job's host nodes and release, the sorted release
// list, and the host groups of every application in the queue, which must
// also equal the groups built from nothing (refHostGroupsFor). The carried
// state and the memos must have been patched and rebuilt many times each,
// or the test checks nothing.
func TestCarriedWorldMatchesFresh(t *testing.T) {
	// Every pairing measured, and measured apart from the analytic model,
	// so a memo kept across a swap of the model shows in every rate.
	measured := interference.Default()
	var pairs []interference.MeasuredPair
	for i, a := range app.Catalogue() {
		for k, b := range app.Catalogue()[:i] {
			pairs = append(pairs, interference.MeasuredPair{A: a.Name, B: b.Name,
				RateA: 0.45 + 0.01*float64(i), RateB: 0.55 + 0.01*float64(k)})
		}
	}
	if err := measured.SetMeasured(pairs); err != nil {
		t.Fatal(err)
	}
	configs := []ShareConfig{DefaultShareConfig(), DefaultShareConfig(), DefaultShareConfig(), DefaultShareConfig()}
	configs[1].PairingAware = false
	configs[2].InflationAccounting = false
	configs[3].MinComplementarity = 0.2
	// The passes with sharing off skip the world and the sharing passes
	// after them patch it across them; the last of a step skips it. One of
	// them prefers hosts, so a pass with sharing off that read the world it
	// left behind would place a guest.
	off := ShareConfig{MaxDegree: 2, PreferShared: true}
	policies := func(cfg ShareConfig) []Policy {
		return []Policy{ShareBackfill{Config: cfg}, EASY{}, ShareConservative{Config: cfg}, Conservative{},
			ShareFirstFit{Config: cfg}, FirstFit{}, ShareBackfill{Config: off}}
	}

	var patched, rebuilt, steps int
	memoUses := map[string]int{}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := des.NewRNG(seed)
		ctx := deepState(t, seed, 40, 4, false)
		c := ctx.Cluster
		nextID := cluster.JobID(10_000)
		cfg := configs[0]
		running := ctx.Running
		setRunning := func(rs []*RunningJob) {
			running = rs
			ctx.Running = rs
		}
		// insert adds r to the running set in ascending job-ID order; the set
		// is out of that order for no more than the step that shuffled it.
		insert := func(r *RunningJob) {
			at, _ := slices.BinarySearchFunc(running, r.Job.ID, func(x *RunningJob, id cluster.JobID) int {
				return int(x.Job.ID - id)
			})
			setRunning(slices.Insert(running, at, r))
		}
		allocate := func(j *job.Job, p cluster.Placement, end des.Time) *RunningJob {
			if err := c.Allocate(p); err != nil {
				t.Fatalf("seed %d: allocate job %d: %v", seed, j.ID, err)
			}
			return &RunningJob{Job: j, NodeIDs: p.NodeIDs(), NominalEnd: end, PredictedEnd: end + des.Time(rng.Intn(3)*50), Rate: 1}
		}
		release := func(i int) {
			if _, err := c.Release(running[i].Job.ID); err != nil {
				t.Fatal(err)
			}
			setRunning(slices.Delete(running, i, i+1))
		}
		var last []Decision
		unsorted := false
		for step := 0; step < 80; step++ {
			steps++
			if unsorted {
				rs := slices.Clone(running)
				slices.SortFunc(rs, func(a, b *RunningJob) int { return int(a.Job.ID - b.Job.ID) })
				setRunning(rs)
				unsorted = false
			}
			switch op := rng.Intn(16); {
			case op < 3: // commit what the last pass decided
				for _, d := range last[:min(len(last), 2)] {
					insert(allocate(d.Job, d.Placement, ctx.Now+d.Job.ReqWalltime))
					ctx.Queue = slices.DeleteFunc(ctx.Queue, func(j *job.Job) bool { return j == d.Job })
				}
			case op < 5: // a job ends
				if len(running) > 0 {
					release(rng.Intn(len(running)))
				}
			case op == 5: // a job starts outside the planner, on idle nodes or beside a host
				a := ctx.Queue[rng.Intn(len(ctx.Queue))].App
				nextID++
				j := &job.Job{ID: nextID, Name: "hand", App: a, Nodes: 1, ReqWalltime: 900, TrueRuntime: 900}
				if idle := c.AppendIdleNodes(nil); len(idle) > 0 && rng.Intn(2) == 0 {
					insert(allocate(j, c.ExclusivePlacement(j.ID, idle[:1], a.MemPerNodeMB), ctx.Now+900))
				} else if hosts := c.ShareCandidates(cluster.SecondaryLayer, a.MemPerNodeMB); len(hosts) > 0 {
					insert(allocate(j, c.LayerPlacement(j.ID, hosts[:1], cluster.SecondaryLayer, a.MemPerNodeMB), ctx.Now+900))
				}
			case op == 6: // drain or undrain a node
				ni := rng.Intn(c.Size())
				c.SetDrained(ni, !c.Node(ni).Drained())
			case op == 7: // fail an idle node or repair a failed one
				ni := rng.Intn(c.Size())
				if n := c.Node(ni); n.Down() || n.Idle() {
					c.SetDown(ni, !n.Down())
				}
			case op == 8: // planned ends edited in place
				if len(running) > 0 {
					r := running[rng.Intn(len(running))]
					if rng.Intn(2) == 0 {
						r.PredictedEnd += des.Time(50 * (1 + rng.Intn(4)))
					} else {
						r.NominalEnd -= des.Time(50 * (1 + rng.Intn(4)))
					}
				}
			case op == 9: // the share configuration or the co-run model
				if rng.Intn(2) == 0 {
					cfg = configs[rng.Intn(len(configs))]
				} else if ctx.Inter == measured {
					ctx.Inter = interference.Default()
				} else {
					ctx.Inter = measured
				}
			case op == 10: // out of ID order for one step
				rs := slices.Clone(running)
				rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
				setRunning(rs)
				unsorted = true
			case op == 11: // another job under the same ID, on the same nodes
				if i := rng.Intn(len(running) + 1); i < len(running) &&
					!slices.ContainsFunc(running[i].NodeIDs, func(ni int) bool { return c.Node(ni).Drained() }) {
					old := running[i]
					j := *old.Job
					p := cluster.Placement{Job: j.ID}
					for _, ni := range old.NodeIDs {
						p.Nodes = append(p.Nodes, cluster.NodePlacement{
							Node: ni, Threads: c.Node(ni).JobThreads(j.ID), MemoryMB: c.Node(ni).JobMemoryMB(j.ID)})
					}
					release(i)
					insert(allocate(&j, p, old.NominalEnd))
				}
			case op == 12:
				ctx.Now += 25
			case op < 15: // more node changes than the cluster remembers
				for range 2*c.Size() + 1 {
					ni := rng.Intn(c.Size())
					c.SetDrained(ni, !c.Node(ni).Drained())
				}
			default: // nothing changed: the next pass sees the same world
			}
			if len(ctx.Queue) < 10 {
				ctx.Queue = append(ctx.Queue, deepState(t, seed*1000+uint64(step), 10, 0, false).Queue...)
			}

			// compare checks the carried world and the host groups of every
			// application in the queue against fresh's, as both scratches
			// stand.
			compare := func(what string, fresh *Context) {
				t.Helper()
				if got, want := worldSignature(ctx.sc), worldSignature(fresh.sc); got != want {
					t.Fatalf("seed %d step %d %s: the carried world\n%s, a fresh one\n%s", seed, step, what, got, want)
				}
				seen := map[string]bool{}
				for _, j := range ctx.Queue {
					guest := ctx.sc.appOfJob(j)
					key := appKey(&ctx.sc.apps, guest)
					if seen[key] {
						continue
					}
					seen[key] = true
					switch m := memoOf(ctx.sc, guest); {
					case m == nil:
					case m.world != ctx.sc.world && m.world == ctx.sc.patchedFrom:
						memoUses["patched"]++
					case m.world != ctx.sc.world:
						memoUses["built"]++
					}
					got := groupsSignature(hostGroupsFor(&ctx.sc.scoped, j, guest))
					if want := groupsSignature(hostGroupsFor(&fresh.sc.scoped, j, fresh.sc.appOfJob(j))); got != want {
						t.Fatalf("seed %d step %d %s: application %s's carried host groups\n%s, fresh ones\n%s",
							seed, step, what, key, got, want)
					}
					if want := groupsSignature(refHostGroupsFor(&ctx.sc.scoped, j, guest)); got != want {
						t.Fatalf("seed %d step %d %s: application %s's carried host groups\n%s, built from nothing\n%s",
							seed, step, what, key, got, want)
					}
				}
			}
			freshCtx := func() *Context {
				return &Context{Now: ctx.Now, Cluster: c, Queue: ctx.Queue, Running: ctx.Running, Inter: ctx.Inter, Share: ctx.Share}
			}
			// A probe begins a pass and queries every application before
			// anything is claimed: the memos the next step starts from.
			probe := func() {
				fresh := freshCtx()
				ctx.withShare(cfg).beginShare()
				fresh.withShare(cfg).beginShare()
				compare("probe", fresh)
			}
			probe()
			for k, pol := range policies(cfg) {
				fresh := freshCtx()
				got, want := decisionSignature(pol.Schedule(ctx)), decisionSignature(pol.Schedule(fresh))
				if got != want {
					t.Fatalf("seed %d step %d %s: the carried context planned\n%s, a fresh one\n%s", seed, step, pol.Name(), got, want)
				}
				if k == 0 {
					last = pol.Schedule(ctx)
				}
				if ctx.sc.scoped.Share.Enabled {
					compare(pol.Name(), fresh)
				}
			}
			if rng.Intn(2) == 0 {
				probe() // else the next step starts from memos that followed claims
			}
		}
		patched += ctx.sc.patched
		rebuilt += ctx.sc.rebuilt
	}
	t.Logf("%d steps: world patched %d, rebuilt %d times; memos %v", steps, patched, rebuilt, memoUses)
	for what, n := range map[string]int{
		"world patched": patched, "world rebuilt": rebuilt,
		"memo patched": memoUses["patched"], "memo built": memoUses["built"],
	} {
		if n < 100 {
			t.Errorf("%s only %d times", what, n)
		}
	}
}

// appKey renders interned application id of tbl by what intern keys on.
func appKey(tbl *appTable, id int32) string {
	e := tbl.apps[id]
	return fmt.Sprintf("%s%v/%d", e.name, e.stress, e.memMB)
}

// worldSignature renders a scratch's per-world state in terms of the
// running set — positions, not slots — so two scratches that assigned slots
// differently compare equal when they describe the same world.
func worldSignature(sc *scratch) string {
	var b strings.Builder
	running := sc.scoped.Running
	pos := func(s int32) int32 {
		if s < 0 {
			return s
		}
		return sc.bySlot[s].pos
	}
	fmt.Fprintf(&b, "hostable %d\n", sc.hostable)
	for i, r := range running {
		s := sc.runSlot[i]
		if sc.bySlot[s].run != r || sc.bySlot[s].pos != int32(i) {
			fmt.Fprintf(&b, "running job %d is not in its slot\n", i)
		}
		fmt.Fprintf(&b, "job %d app %s hosts %v end %v releases %d\n",
			i, appKey(&sc.apps, sc.bySlot[s].app), sc.bySlot[s].hosts, sc.bySlot[s].end, sc.bySlot[s].rel)
	}
	for ni := range sc.scoped.Cluster.Size() {
		var res []int32
		for _, s := range sc.res[ni] {
			res = append(res, pos(s))
		}
		fmt.Fprintf(&b, "node %d residents %v host %d releaser %d", ni, res, pos(sc.hostOf[ni]), pos(sc.relBy[ni]))
		if h := sc.hostOf[ni]; h >= 0 {
			in := sc.info[ni]
			class := "several"
			if in.class >= 0 {
				class = appKey(&sc.apps, in.class)
			}
			fmt.Fprintf(&b, " mem %d layer %d class %s", in.memFree, in.layer, class)
		}
		b.WriteByte('\n')
	}
	if !slices.IsSortedFunc(sc.shareRel, byTime) {
		b.WriteString("release list out of order\n")
	}
	rel := slices.Clone(sc.shareRel)
	slices.SortFunc(rel, func(a, b nodeRelease) int {
		if c := byTime(a, b); c != 0 {
			return c
		}
		return int(pos(a.slot) - pos(b.slot))
	})
	for _, r := range rel {
		fmt.Fprintf(&b, "release %v %d by %d\n", r.at, r.nodes, pos(r.slot))
	}
	return b.String()
}

// A patch re-judges every node that moved: those the entering and leaving
// jobs name and those the cluster reports changed, whatever the running set
// says about the cluster. Each case here fools a patch that instead counts
// the cluster's changes against the nodes of the jobs that entered and left
// and re-judges only those: a running job dropped from the set without a
// Release while a hosting node is drained (one node each way); and two jobs
// swapping places out of ID order — in the new set or in the recorded one,
// read as one job leaving and entering — while two hosting nodes are
// drained. Each must be patched, and plan and carry what a fresh Context
// does.
func TestWorldPatchSeesEveryChangedNode(t *testing.T) {
	for _, tc := range []string{"dropped without a release", "swapped, new set out of order", "swapped, recorded set out of order"} {
		c := cluster.New(cluster.Config{Nodes: 8, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1000})
		var running []*RunningJob
		for ni := range 6 {
			running = append(running, runLayer(t, c, mkJob(computeApp, 1, 1000), []int{ni}, des.Time(500+100*ni)))
		}
		swapped := append([]*RunningJob{running[1], running[0]}, running[2:]...)
		before, after, drain := running, swapped, []int{4, 5}
		switch tc {
		case "dropped without a release":
			after, drain = slices.Delete(slices.Clone(running), 2, 3), []int{4}
		case "swapped, recorded set out of order":
			before, after = swapped, running
		}
		queue := []*job.Job{mkJob(membwApp, 2, 400), mkJob(membwApp, 1, 400)}
		ctx := mkCtx(c, queue, before)
		pol := ShareBackfill{Config: DefaultShareConfig()}
		pol.Schedule(ctx)

		ctx.Running = after
		for _, ni := range drain {
			c.SetDrained(ni, true)
		}
		patched := ctx.sc.patched
		fresh := mkCtx(c, queue, after)
		if got, want := decisionSignature(pol.Schedule(ctx)), decisionSignature(pol.Schedule(fresh)); got != want {
			t.Fatalf("%s: the carried context planned\n%s, a fresh one\n%s", tc, got, want)
		}
		if got, want := worldSignature(ctx.sc), worldSignature(fresh.sc); got != want {
			t.Fatalf("%s: the carried world\n%s, a fresh one\n%s", tc, got, want)
		}
		if ctx.sc.patched != patched+1 {
			t.Fatalf("%s: the world was not patched", tc)
		}
	}
}
