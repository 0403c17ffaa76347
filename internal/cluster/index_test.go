package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The brute-force side rescans what the residents' masks say (Owner walks
// them) and never reads the busy mask, the counters or the index.

// bruteIdle reports whether no resident owns any thread of n.
func bruteIdle(n *Node) bool {
	for t := 0; t < n.threads; t++ {
		if n.Owner(t) != NoJob {
			return false
		}
	}
	return true
}

func bruteIdleNodes(c *Cluster) []int {
	var out []int
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if bruteIdle(n) && n.Available() {
			out = append(out, i)
		}
	}
	return out
}

func bruteLayerFree(c *Cluster, ni int, l Layer) bool {
	n := c.Node(ni)
	if int(l) < 0 || int(l) >= n.tpc {
		return false
	}
	for core := 0; core < n.threads/n.tpc; core++ {
		if n.Owner(core*n.tpc+int(l)) != NoJob {
			return false
		}
	}
	return true
}

func bruteShareCandidates(c *Cluster, l Layer, memMB int) []int {
	var out []int
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if bruteIdle(n) || !n.Available() || !bruteLayerFree(c, i, l) {
			continue
		}
		if bruteMemFree(n) < memMB {
			continue
		}
		out = append(out, i)
	}
	return out
}

// bruteMemFree recomputes free memory from the per-job map, the index-free
// source of truth.
func bruteMemFree(n *Node) int {
	used := 0
	for _, id := range n.Jobs() {
		used += n.JobMemoryMB(id)
	}
	return n.memMB - used
}

func bruteBusyFreeLayerNodes(c *Cluster) []int {
	var out []int
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if bruteIdle(n) || !n.Available() {
			continue
		}
		for l := 0; l < n.tpc; l++ {
			if bruteLayerFree(c, i, Layer(l)) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkOwnership checks the ownership representation itself: the
// residents' masks are non-empty and pairwise disjoint (no thread is
// double-booked), listed in ascending job order, and their union is the
// busy mask, which the free counter and the memory sum agree with.
func checkOwnership(t *testing.T, c *Cluster, step int) {
	t.Helper()
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		union := make([]uint64, len(n.busy))
		mem := 0
		for k, r := range n.res {
			if k > 0 && n.res[k-1].id >= r.id {
				t.Fatalf("step %d: node %d residents out of order: %d before %d", step, i, n.res[k-1].id, r.id)
			}
			if popcount(r.mask) == 0 {
				t.Fatalf("step %d: node %d resident %d holds no thread", step, i, r.id)
			}
			if overlaps(union, r.mask) {
				t.Fatalf("step %d: node %d resident %d holds a thread another resident holds", step, i, r.id)
			}
			orInto(union, r.mask)
			mem += r.memMB
		}
		if !slices.Equal(union, n.busy) {
			t.Fatalf("step %d: node %d busy mask %x, residents' union %x", step, i, n.busy, union)
		}
		if n.FreeThreads() != n.threads-popcount(union) || n.memUsedSum != mem {
			t.Fatalf("step %d: node %d free %d / memory %d MB, residents hold %d threads / %d MB",
				step, i, n.FreeThreads(), n.memUsedSum, popcount(union), mem)
		}
	}
}

// checkIndex cross-checks every indexed query against a brute-force rescan.
func checkIndex(t *testing.T, c *Cluster, step int) {
	t.Helper()
	checkOwnership(t, c, step)
	if got, want := c.AppendIdleNodes(nil), bruteIdleNodes(c); !equalInts(got, want) {
		t.Fatalf("step %d: IdleNodes = %v, brute force = %v", step, got, want)
	}
	if got, want := c.CountIdle(), len(bruteIdleNodes(c)); got != want {
		t.Fatalf("step %d: CountIdle = %d, brute force = %d", step, got, want)
	}
	if got, want := c.AppendBusyFreeLayerNodes(nil), bruteBusyFreeLayerNodes(c); !equalInts(got, want) {
		t.Fatalf("step %d: BusyFreeLayerNodes = %v, brute force = %v", step, got, want)
	}
	busyThreads, busyNodes, sharedNodes := 0, 0, 0
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		for th := 0; th < n.threads; th++ {
			if n.Owner(th) != NoJob {
				busyThreads++
			}
		}
		if !bruteIdle(n) {
			busyNodes++
		}
		if n.SharingDegree() >= 2 {
			sharedNodes++
		}
		if got, want := n.MemFreeMB(), bruteMemFree(n); got != want {
			t.Fatalf("step %d: node %d MemFreeMB = %d, brute force = %d", step, i, got, want)
		}
		for l := 0; l < n.tpc; l++ {
			if got, want := c.LayerFree(i, Layer(l)), bruteLayerFree(c, i, Layer(l)); got != want {
				t.Fatalf("step %d: LayerFree(%d, %d) = %v, brute force = %v", step, i, l, got, want)
			}
		}
	}
	if got := c.BusyThreads(); got != busyThreads {
		t.Fatalf("step %d: BusyThreads = %d, brute force = %d", step, got, busyThreads)
	}
	if got := c.BusyNodes(); got != busyNodes {
		t.Fatalf("step %d: BusyNodes = %d, brute force = %d", step, got, busyNodes)
	}
	if got := c.SharedNodes(); got != sharedNodes {
		t.Fatalf("step %d: SharedNodes = %d, brute force = %d", step, got, sharedNodes)
	}
	for l := 0; l < c.Config().ThreadsPerCore; l++ {
		for _, mem := range []int{0, 1024, 64 * 1024} {
			got := c.ShareCandidates(Layer(l), mem)
			want := bruteShareCandidates(c, Layer(l), mem)
			if !equalInts(got, want) {
				t.Fatalf("step %d: ShareCandidates(%d, %d) = %v, brute force = %v", step, l, mem, got, want)
			}
		}
	}
}

// TestProperty_IndexMatchesRescan hammers the cluster with a random but
// deterministic mix of layer/exclusive allocations, releases, drains, and
// down/repair cycles, checking the ownership representation and
// cross-checking every indexed query against a full rescan of the residents'
// masks after each step. This is the safety argument for the busy masks and
// the free-capacity index: their answers are exactly the rescan answers, at
// every reachable state. Along the way ChangedSince, asked about a reading
// of Changes taken a random number of steps back, must name every node whose
// state differs from what it was at that reading, and must remember at least
// as many changes as the cluster has nodes.
func TestProperty_IndexMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	cfg := Config{Nodes: 24, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 8192}
	c := New(cfg)
	var live []JobID
	nextID := JobID(1)
	var since uint64
	var then []string
	remembered, forgotten := 0, 0

	for step := 0; step < 2500; step++ {
		switch op := rng.IntN(10); {
		case op < 4: // allocate a layer placement on 1–4 usable nodes
			layer := Layer(rng.IntN(cfg.ThreadsPerCore))
			var nodes []int
			for ni := 0; ni < cfg.Nodes && len(nodes) < 1+rng.IntN(4); ni++ {
				n := c.Node(ni)
				if n.Available() && c.LayerFree(ni, layer) && n.MemFreeMB() >= 1024 {
					nodes = append(nodes, ni)
				}
			}
			if len(nodes) == 0 {
				continue
			}
			id := nextID
			nextID++
			if err := c.Allocate(c.LayerPlacement(id, nodes, layer, 1024)); err != nil {
				t.Fatalf("step %d: layer allocate: %v", step, err)
			}
			live = append(live, id)
		case op < 6: // allocate an exclusive placement on 1–2 idle nodes
			idle := c.AppendIdleNodes(nil)
			if len(idle) == 0 {
				continue
			}
			k := 1 + rng.IntN(2)
			if k > len(idle) {
				k = len(idle)
			}
			id := nextID
			nextID++
			if err := c.Allocate(c.ExclusivePlacement(id, idle[:k], 2048)); err != nil {
				t.Fatalf("step %d: exclusive allocate: %v", step, err)
			}
			live = append(live, id)
		case op < 8: // release a random live job
			if len(live) == 0 {
				continue
			}
			i := rng.IntN(len(live))
			if _, err := c.Release(live[i]); err != nil {
				t.Fatalf("step %d: release: %v", step, err)
			}
			live = append(live[:i], live[i+1:]...)
		case op < 9: // toggle drain on a random node
			ni := rng.IntN(cfg.Nodes)
			c.SetDrained(ni, !c.Node(ni).Drained())
		default: // down/repair a random empty node
			ni := rng.IntN(cfg.Nodes)
			n := c.Node(ni)
			if n.Down() {
				c.SetDown(ni, false)
			} else if n.SharingDegree() == 0 {
				c.SetDown(ni, true)
			}
		}
		checkIndex(t, c, step)

		if step%40 == 0 {
			since, then = c.Changes(), nodeStates(c)
		}
		changed, ok := c.ChangedSince(since, nil)
		if n := c.Changes() - since; !ok && n <= uint64(cfg.Nodes) {
			t.Fatalf("step %d: %d changes since the reading, %d nodes, yet ChangedSince forgot them", step, n, cfg.Nodes)
		}
		if !ok {
			forgotten++
			continue
		}
		remembered++
		for ni, st := range nodeStates(c) {
			if st != then[ni] && !slices.Contains(changed, ni) {
				t.Fatalf("step %d: node %d changed since the reading but ChangedSince names only %v", step, ni, changed)
			}
		}
	}
	if remembered < 500 || forgotten < 100 {
		t.Fatalf("ChangedSince remembered %d and forgot %d times: too few to check either", remembered, forgotten)
	}
}

// nodeStates renders every node's owners, memory, drain and down state.
func nodeStates(c *Cluster) []string {
	out := make([]string, c.Size())
	for ni := range out {
		n := c.Node(ni)
		owners := make([]JobID, n.threads)
		for th := range owners {
			owners[th] = n.Owner(th)
		}
		out[ni] = fmt.Sprint(owners, n.MemFreeMB(), n.Drained(), n.Down())
	}
	return out
}
