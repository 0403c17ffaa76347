package sched

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
)

// buildRandomState constructs an arbitrary mid-run scheduling state from
// fuzz bytes: some running jobs on layer or exclusive placements, some
// queued jobs, varying sizes and apps.
func buildRandomState(t *testing.T, seed []byte) *Context {
	t.Helper()
	return buildRandomStateOn(t, seed, 1000)
}

// buildRoomyState is buildRandomState on nodes with Trinity's memory. The
// catalogue applications need 24–64 GiB per node, so on buildRandomState's
// 1000 MB nodes no queued job ever fits the machine and every policy plans
// nothing; here they fit, start, and co-allocate.
func buildRoomyState(t *testing.T, seed []byte) *Context {
	t.Helper()
	return buildRandomStateOn(t, seed, 128*1024)
}

func buildRandomStateOn(t *testing.T, seed []byte, memPerNodeMB int) *Context {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes: 12, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: memPerNodeMB,
	})
	cat := app.Catalogue()
	next := byte(0)
	take := func() int {
		if len(seed) == 0 {
			next++
			return int(next)
		}
		v := int(seed[0])
		seed = seed[1:]
		return v
	}

	var running []*RunningJob
	id := cluster.JobID(1000)
	// Up to 6 running jobs on random free node prefixes.
	for k := 0; k < take()%7; k++ {
		nodes := 1 + take()%4
		var free []int
		for ni := 0; ni < c.Size() && len(free) < nodes; ni++ {
			if c.Node(ni).Idle() {
				free = append(free, ni)
			}
		}
		if len(free) < nodes {
			break
		}
		a := cat[take()%len(cat)]
		id++
		j := &job.Job{ID: id, Name: "run", App: a, Nodes: nodes,
			ReqWalltime: des.Duration(1000 + take()), TrueRuntime: 900, Submit: 0}
		var p cluster.Placement
		exclusive := take()%2 == 0
		if exclusive {
			p = c.ExclusivePlacement(id, free, a.MemPerNodeMB%900+50)
		} else {
			p = c.LayerPlacement(id, free, cluster.PrimaryLayer, a.MemPerNodeMB%900+50)
		}
		if err := c.Allocate(p); err != nil {
			t.Fatalf("setup allocation failed: %v", err)
		}
		j.Start(0)
		end := des.Time(500 + take()*7)
		running = append(running, &RunningJob{
			Job: j, NodeIDs: free, Exclusive: exclusive,
			NominalEnd: end, PredictedEnd: end, Rate: 1,
		})
	}

	var queue []*job.Job
	for k := 0; k < 2+take()%10; k++ {
		a := cat[take()%len(cat)]
		wall := des.Duration(300 + 100*(take()%20))
		id++
		queue = append(queue, &job.Job{
			ID: id, Name: "q", App: a, Nodes: 1 + take()%13, // may exceed machine
			ReqWalltime: wall, TrueRuntime: wall, Submit: des.Time(take()),
		})
	}

	return &Context{
		Now:     des.Time(100),
		Cluster: c,
		Queue:   queue,
		Running: running,
		Inter:   interference.Default(),
		Share:   DefaultShareConfig(),
	}
}

// Property (all policies): on any reachable state, every decision batch is
// (a) for jobs actually in the queue, (b) without duplicate job starts,
// (c) committable as-is against the live cluster, and (d) sized exactly to
// each job's node request.
func TestProperty_DecisionsAlwaysCommittable(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			f := func(seed []byte) bool {
				ctx := buildRandomState(t, seed)
				queued := map[cluster.JobID]bool{}
				for _, j := range ctx.Queue {
					queued[j.ID] = true
				}
				decisions := pol.Schedule(ctx)
				seen := map[cluster.JobID]bool{}
				for _, d := range decisions {
					if !queued[d.Job.ID] {
						t.Logf("%s started non-queued job %d", name, d.Job.ID)
						return false
					}
					if seen[d.Job.ID] {
						t.Logf("%s started job %d twice", name, d.Job.ID)
						return false
					}
					seen[d.Job.ID] = true
					if len(d.Placement.Nodes) != d.Job.Nodes {
						t.Logf("%s sized job %d at %d nodes, requested %d",
							name, d.Job.ID, len(d.Placement.Nodes), d.Job.Nodes)
						return false
					}
					if d.EstimatedRate <= 0 || d.EstimatedRate > 1 {
						t.Logf("%s estimated rate %g", name, d.EstimatedRate)
						return false
					}
					if err := ctx.Cluster.Allocate(d.Placement); err != nil {
						t.Logf("%s produced uncommittable placement: %v", name, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// decisionSignature renders a decision batch by value (job IDs, not
// pointers), so batches planned on two builds of the same state compare.
func decisionSignature(ds []Decision) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%d shared=%v rate=%v:", d.Job.ID, d.Shared, d.EstimatedRate)
		for _, np := range d.Placement.Nodes {
			fmt.Fprintf(&b, " %d%v/%d", np.Node, np.Threads, np.MemoryMB)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Property: Schedule is a pure function of the state it is shown. It must
// not mutate the cluster (it simulates commits on scratch state only), and
// the scratch a Context carries from pass to pass must never leak into a
// decision: three passes over one Context, interleaved with passes over
// another engine's Context, all plan exactly what a first pass over a fresh
// Context plans. Checked on states where nothing fits the machine
// (buildRandomState) and on states where jobs start and share
// (buildRoomyState).
func TestProperty_ScheduleIsPure(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			started, shared := 0, 0
			pure := func(build func(*testing.T, []byte) *Context) func(seedA, seedB []byte) bool {
				return func(seedA, seedB []byte) bool {
					a, b := build(t, seedA), build(t, seedB)
					fresh := pol.Schedule(build(t, seedA))
					wantA, wantB := decisionSignature(fresh), decisionSignature(pol.Schedule(build(t, seedB)))
					for _, d := range fresh {
						started++
						if d.Shared {
							shared++
						}
					}
					threadsA, nodesA := a.Cluster.BusyThreads(), a.Cluster.BusyNodes()
					threadsB, nodesB := b.Cluster.BusyThreads(), b.Cluster.BusyNodes()
					for pass := 1; pass <= 3; pass++ {
						gotA := decisionSignature(pol.Schedule(a))
						gotB := decisionSignature(pol.Schedule(b))
						if gotA != wantA || gotB != wantB {
							t.Logf("%s pass %d on a reused context planned\n%s%s, a fresh context\n%s%s",
								name, pass, gotA, gotB, wantA, wantB)
							return false
						}
						if a.Cluster.BusyThreads() != threadsA || a.Cluster.BusyNodes() != nodesA ||
							b.Cluster.BusyThreads() != threadsB || b.Cluster.BusyNodes() != nodesB {
							t.Logf("%s pass %d mutated a cluster", name, pass)
							return false
						}
					}
					return true
				}
			}
			if err := quick.Check(pure(buildRandomState), &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
			if err := quick.Check(pure(buildRoomyState), &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
			if started == 0 {
				t.Fatal("no state planned a start; the property was checked on empty batches only")
			}
			if sharing := strings.HasPrefix(name, "share"); sharing && shared == 0 {
				t.Fatal("no state planned a co-allocation")
			}
		})
	}
}

// Property: TestProperty_DecisionsAlwaysCommittable's four claims, on states
// where jobs do fit the machine.
func TestProperty_DecisionsCommittableWhenJobsFit(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			started := 0
			f := func(seed []byte) bool {
				ctx := buildRoomyState(t, seed)
				queued := map[cluster.JobID]int{}
				for _, j := range ctx.Queue {
					queued[j.ID] = j.Nodes
				}
				for _, d := range pol.Schedule(ctx) {
					nodes, ok := queued[d.Job.ID]
					if !ok || len(d.Placement.Nodes) != nodes || d.EstimatedRate <= 0 || d.EstimatedRate > 1 {
						t.Logf("%s: bad decision for job %d (queued %v, %d of %d nodes, rate %g)",
							name, d.Job.ID, ok, len(d.Placement.Nodes), nodes, d.EstimatedRate)
						return false
					}
					delete(queued, d.Job.ID) // a second start of the same job fails the lookup
					if err := ctx.Cluster.Allocate(d.Placement); err != nil {
						t.Logf("%s produced uncommittable placement: %v", name, err)
						return false
					}
					started++
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
			if started == 0 {
				t.Fatal("no state planned a start")
			}
		})
	}
}
