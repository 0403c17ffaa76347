package cluster

import (
	"errors"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Nodes: 4, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1000}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Nodes: 0, CoresPerNode: 1, ThreadsPerCore: 1, MemoryPerNodeMB: 1},
		{Nodes: 1, CoresPerNode: 0, ThreadsPerCore: 1, MemoryPerNodeMB: 1},
		{Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 0, MemoryPerNodeMB: 1},
		{Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 1, MemoryPerNodeMB: 0},
		{Nodes: -2, CoresPerNode: 1, ThreadsPerCore: 1, MemoryPerNodeMB: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := testConfig()
	if cfg.ThreadsPerNode() != 8 {
		t.Fatalf("ThreadsPerNode = %d, want 8", cfg.ThreadsPerNode())
	}
}

func TestTrinityConfig(t *testing.T) {
	cfg := Trinity(16)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Trinity config invalid: %v", err)
	}
	if cfg.Nodes != 16 || cfg.CoresPerNode != 32 || cfg.ThreadsPerCore != 2 {
		t.Fatalf("Trinity config = %+v", cfg)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestFreshClusterState(t *testing.T) {
	c := New(testConfig())
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	if got := len(c.AppendIdleNodes(nil)); got != 4 {
		t.Fatalf("IdleNodes = %d, want 4", got)
	}
	if c.BusyThreads() != 0 || c.BusyNodes() != 0 || c.SharedNodes() != 0 {
		t.Fatal("fresh cluster reports busy resources")
	}
	n := c.Node(0)
	if n.threads != 8 || n.FreeThreads() != 8 || !n.Idle() {
		t.Fatalf("fresh node state wrong: threads=%d free=%d", n.threads, n.FreeThreads())
	}
	if n.MemFreeMB() != 1000 {
		t.Fatalf("MemFreeMB = %d", n.MemFreeMB())
	}
}

func TestExclusiveAllocateRelease(t *testing.T) {
	c := New(testConfig())
	p := c.ExclusivePlacement(1, []int{0, 2}, 500)
	if err := c.Allocate(p); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if c.BusyNodes() != 2 || c.BusyThreads() != 16 {
		t.Fatalf("busy nodes/threads = %d/%d, want 2/16", c.BusyNodes(), c.BusyThreads())
	}
	if got := c.JobNodes(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("JobNodes = %v", got)
	}
	if !c.Holds(1) {
		t.Fatal("Holds(1) = false after allocation")
	}
	if c.Node(0).MemFreeMB() != 500 {
		t.Fatalf("node 0 MemFree = %d, want 500", c.Node(0).MemFreeMB())
	}
	nodes, err := c.Release(1)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if len(nodes) != 2 {
		t.Fatalf("Release touched %d nodes, want 2", len(nodes))
	}
	if c.BusyThreads() != 0 || c.Holds(1) {
		t.Fatal("resources not fully released")
	}
	if c.Node(0).MemFreeMB() != 1000 {
		t.Fatal("memory not released")
	}
}

func TestAllocateConflicts(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(c.ExclusivePlacement(1, []int{0}, 100)); err != nil {
		t.Fatal(err)
	}
	err := c.Allocate(c.ExclusivePlacement(2, []int{0}, 100))
	if !errors.Is(err, ErrThreadBusy) {
		t.Fatalf("double-allocation error = %v, want ErrThreadBusy", err)
	}
	// Failed allocation must not leave partial state.
	if c.Node(0).SharingDegree() != 1 {
		t.Fatal("failed allocation mutated node state")
	}
}

func TestAllocateMemoryGuard(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(c.LayerPlacement(1, []int{0}, PrimaryLayer, 800)); err != nil {
		t.Fatal(err)
	}
	err := c.Allocate(c.LayerPlacement(2, []int{0}, SecondaryLayer, 300))
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("memory overcommit error = %v, want ErrNoMemory", err)
	}
	if err := c.Allocate(c.LayerPlacement(2, []int{0}, SecondaryLayer, 200)); err != nil {
		t.Fatalf("fitting co-allocation rejected: %v", err)
	}
}

func TestAllocateAtomicityAcrossNodes(t *testing.T) {
	c := New(testConfig())
	// Occupy node 1 fully so a multi-node placement over {0,1} must fail.
	if err := c.Allocate(c.ExclusivePlacement(9, []int{1}, 0)); err != nil {
		t.Fatal(err)
	}
	err := c.Allocate(c.ExclusivePlacement(2, []int{0, 1}, 0))
	if err == nil {
		t.Fatal("conflicting multi-node placement accepted")
	}
	if !c.Node(0).Idle() {
		t.Fatal("failed multi-node placement left residue on node 0")
	}
	if c.Holds(2) {
		t.Fatal("failed placement registered job")
	}
}

func TestBadPlacements(t *testing.T) {
	c := New(testConfig())
	cases := []struct {
		name string
		p    Placement
	}{
		{"no-job", Placement{Job: NoJob, Nodes: []NodePlacement{{Node: 0, Threads: []int{0}}}}},
		{"empty", Placement{Job: 1}},
		{"bad-node", Placement{Job: 1, Nodes: []NodePlacement{{Node: 99, Threads: []int{0}}}}},
		{"neg-node", Placement{Job: 1, Nodes: []NodePlacement{{Node: -1, Threads: []int{0}}}}},
		{"no-threads", Placement{Job: 1, Nodes: []NodePlacement{{Node: 0}}}},
		{"bad-thread", Placement{Job: 1, Nodes: []NodePlacement{{Node: 0, Threads: []int{99}}}}},
		{"neg-thread", Placement{Job: 1, Nodes: []NodePlacement{{Node: 0, Threads: []int{-1}}}}},
		{"dup-thread", Placement{Job: 1, Nodes: []NodePlacement{{Node: 0, Threads: []int{1, 1}}}}},
		{"neg-mem", Placement{Job: 1, Nodes: []NodePlacement{{Node: 0, Threads: []int{0}, MemoryMB: -5}}}},
		{"dup-node", Placement{Job: 1, Nodes: []NodePlacement{
			{Node: 0, Threads: []int{0}}, {Node: 0, Threads: []int{1}}}}},
	}
	for _, tc := range cases {
		if err := c.Allocate(tc.p); err == nil {
			t.Errorf("%s: bad placement accepted", tc.name)
		}
	}
	if c.BusyThreads() != 0 {
		t.Fatal("rejected placements left residue")
	}
}

func TestReleaseUnknownJob(t *testing.T) {
	c := New(testConfig())
	if _, err := c.Release(42); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Release(unknown) = %v, want ErrUnknownJob", err)
	}
}

func TestLayerHelpers(t *testing.T) {
	c := New(testConfig())
	threads := c.LayerThreads(0, PrimaryLayer)
	want := []int{0, 2, 4, 6}
	for i := range want {
		if threads[i] != want[i] {
			t.Fatalf("primary layer threads = %v, want %v", threads, want)
		}
	}
	threads = c.LayerThreads(0, SecondaryLayer)
	want = []int{1, 3, 5, 7}
	for i := range want {
		if threads[i] != want[i] {
			t.Fatalf("secondary layer threads = %v, want %v", threads, want)
		}
	}
	if !c.LayerFree(0, PrimaryLayer) || !c.LayerFree(0, SecondaryLayer) {
		t.Fatal("layers of idle node not free")
	}
	if c.LayerFree(0, Layer(5)) {
		t.Fatal("out-of-range layer reported free")
	}
}

func TestLayerSharing(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(c.LayerPlacement(1, []int{0}, PrimaryLayer, 400)); err != nil {
		t.Fatal(err)
	}
	if c.LayerFree(0, PrimaryLayer) {
		t.Fatal("primary layer still free after allocation")
	}
	if !c.LayerFree(0, SecondaryLayer) {
		t.Fatal("secondary layer not free")
	}
	if err := c.Allocate(c.LayerPlacement(2, []int{0}, SecondaryLayer, 400)); err != nil {
		t.Fatalf("co-allocation failed: %v", err)
	}
	n := c.Node(0)
	if n.SharingDegree() != 2 {
		t.Fatalf("SharingDegree = %d, want 2", n.SharingDegree())
	}
	if c.SharedNodes() != 1 {
		t.Fatalf("SharedNodes = %d, want 1", c.SharedNodes())
	}
	if n.FreeThreads() != 0 {
		t.Fatalf("FreeThreads = %d, want 0", n.FreeThreads())
	}
	// Jobs listed deterministically.
	jobs := n.Jobs()
	if len(jobs) != 2 || jobs[0] != 1 || jobs[1] != 2 {
		t.Fatalf("Jobs = %v", jobs)
	}
	// Releasing job 1 leaves job 2 intact on the secondary layer.
	if _, err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if n.SharingDegree() != 1 {
		t.Fatalf("SharingDegree after release = %d", n.SharingDegree())
	}
	got := n.JobThreads(2)
	if len(got) != 4 || got[0] != 1 {
		t.Fatalf("job 2 threads after co-runner release = %v", got)
	}
}

func TestShareCandidates(t *testing.T) {
	c := New(testConfig())
	// Node 0: primary layer occupied → candidate for secondary.
	if err := c.Allocate(c.LayerPlacement(1, []int{0}, PrimaryLayer, 400)); err != nil {
		t.Fatal(err)
	}
	// Node 1: fully occupied → not a candidate.
	if err := c.Allocate(c.ExclusivePlacement(2, []int{1}, 100)); err != nil {
		t.Fatal(err)
	}
	// Node 2: primary occupied but memory nearly exhausted.
	if err := c.Allocate(c.LayerPlacement(3, []int{2}, PrimaryLayer, 950)); err != nil {
		t.Fatal(err)
	}
	// Node 3: idle → not a candidate (sharing targets busy nodes).
	got := c.ShareCandidates(SecondaryLayer, 300)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("ShareCandidates = %v, want [0]", got)
	}
	// With a smaller memory need node 2 qualifies too.
	got = c.ShareCandidates(SecondaryLayer, 50)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ShareCandidates = %v, want [0 2]", got)
	}
}

func TestFreeSiblingThreadsPanicsOutOfRange(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("FreeSiblingThreads(9) did not panic")
		}
	}()
	c.Node(0).FreeSiblingThreads(9)
}

func TestNodePanicsOutOfRange(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Node(99) did not panic")
		}
	}()
	c.Node(99)
}

func TestPlacementHelpers(t *testing.T) {
	c := New(testConfig())
	p := c.ExclusivePlacement(1, []int{0, 3}, 10)
	if n := len(p.Nodes[0].Threads) + len(p.Nodes[1].Threads); n != 16 {
		t.Fatalf("placement binds %d threads, want 16", n)
	}
	ids := p.NodeIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Fatalf("NodeIDs = %v", ids)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	c := New(testConfig()) // 32 threads total
	if err := c.Allocate(c.LayerPlacement(1, []int{0, 1}, PrimaryLayer, 0)); err != nil {
		t.Fatal(err)
	}
	// 8 of 32 threads busy.
	if got := c.BusyThreads(); got != 8 {
		t.Fatalf("BusyThreads = %d, want 8", got)
	}
	if got := c.BusyNodes(); got != 2 {
		t.Fatalf("BusyNodes = %d, want 2", got)
	}
}

// Property: any sequence of layer allocations and releases conserves
// resources — free threads plus allocated threads equals capacity, and no
// thread has two owners (guaranteed by construction, checked via counts).
func TestProperty_Conservation(t *testing.T) {
	type op struct {
		Alloc bool
		Node  uint8
		Layer uint8
		Mem   uint16
	}
	f := func(ops []op) bool {
		cfg := testConfig()
		c := New(cfg)
		active := map[JobID]bool{}
		next := JobID(1)
		for _, o := range ops {
			if o.Alloc || len(active) == 0 {
				ni := int(o.Node) % cfg.Nodes
				l := Layer(int(o.Layer) % cfg.ThreadsPerCore)
				mem := int(o.Mem) % (cfg.MemoryPerNodeMB + 100)
				p := c.LayerPlacement(next, []int{ni}, l, mem)
				if err := c.Allocate(p); err == nil {
					active[next] = true
					next++
				}
			} else {
				// Release the smallest active job.
				var victim JobID = -1
				for id := range active {
					if victim == -1 || id < victim {
						victim = id
					}
				}
				if victim != -1 {
					if _, err := c.Release(victim); err != nil {
						return false
					}
					delete(active, victim)
				}
			}
			// Invariant: per-node free + owned == capacity, memory within bounds.
			for i := 0; i < c.Size(); i++ {
				n := c.Node(i)
				owned := 0
				for _, id := range n.Jobs() {
					owned += len(n.JobThreads(id))
				}
				if owned+n.FreeThreads() != n.threads {
					return false
				}
				if n.MemFreeMB() < 0 || n.MemFreeMB() > n.memMB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDrain(t *testing.T) {
	c := New(testConfig())
	c.SetDrained(1, true)
	if !c.Node(1).Drained() {
		t.Fatal("node not marked drained")
	}
	// Drained nodes vanish from scheduling queries.
	for _, ni := range c.AppendIdleNodes(nil) {
		if ni == 1 {
			t.Fatal("drained node listed idle")
		}
	}
	if c.CountIdle() != 3 {
		t.Fatalf("CountIdle = %d, want 3", c.CountIdle())
	}
	got := c.DrainedNodes()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("DrainedNodes = %v", got)
	}
	// Allocation on a drained node is refused.
	err := c.Allocate(c.ExclusivePlacement(1, []int{1}, 0))
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("allocate on drained node: %v, want ErrDrained", err)
	}
	// Resume restores scheduling.
	c.SetDrained(1, false)
	if c.CountIdle() != 4 {
		t.Fatal("resume did not restore the node")
	}
}

func TestDrainDoesNotDisturbRunningJob(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(c.LayerPlacement(7, []int{2}, PrimaryLayer, 100)); err != nil {
		t.Fatal(err)
	}
	c.SetDrained(2, true)
	// The running allocation is intact and releasable.
	if c.Node(2).SharingDegree() != 1 {
		t.Fatal("drain disturbed running allocation")
	}
	if _, err := c.Release(7); err != nil {
		t.Fatal(err)
	}
	// ShareCandidates must skip the drained node even when its layer frees.
	if err := c.Allocate(c.LayerPlacement(8, []int{3}, PrimaryLayer, 100)); err != nil {
		t.Fatal(err)
	}
	c.SetDrained(3, true)
	if got := c.ShareCandidates(SecondaryLayer, 10); len(got) != 0 {
		t.Fatalf("ShareCandidates includes drained node: %v", got)
	}
}
