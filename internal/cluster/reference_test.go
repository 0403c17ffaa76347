package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The per-thread cluster the mask-based one replaced, kept as the reference
// it is held against: an owner array per node, two per-job maps per node,
// and Allocate / Release validating and committing thread by thread. Its
// free-capacity queries are full rescans. Nothing outside this file's tests
// may use it.

type refNode struct {
	cores, tpc, memMB int
	owner             []JobID
	memUsed, threads  map[JobID]int
	free              int
	drained, down     bool
	freeInLayer       []int
	memUsedSum        int
}

type refCluster struct {
	nodes                []*refNode
	jobNodes             map[JobID][]int
	seenNode, seenThread []bool
}

func newRefCluster(cfg Config) *refCluster {
	c := &refCluster{jobNodes: map[JobID][]int{},
		seenNode: make([]bool, cfg.Nodes), seenThread: make([]bool, cfg.ThreadsPerNode())}
	for range cfg.Nodes {
		n := &refNode{cores: cfg.CoresPerNode, tpc: cfg.ThreadsPerCore, memMB: cfg.MemoryPerNodeMB,
			owner: make([]JobID, cfg.ThreadsPerNode()), memUsed: map[JobID]int{}, threads: map[JobID]int{},
			free: cfg.ThreadsPerNode(), freeInLayer: make([]int, cfg.ThreadsPerCore)}
		for l := range n.freeInLayer {
			n.freeInLayer[l] = n.cores
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

func (c *refCluster) Allocate(p Placement) error {
	if p.Job == NoJob {
		return fmt.Errorf("%w: placement for NoJob", ErrBadPlace)
	}
	if len(p.Nodes) == 0 {
		return fmt.Errorf("%w: empty placement for job %d", ErrBadPlace, p.Job)
	}
	clear(c.seenNode)
	for _, np := range p.Nodes {
		if np.Node < 0 || np.Node >= len(c.nodes) {
			return fmt.Errorf("%w: %d", ErrUnknownNode, np.Node)
		}
		if c.seenNode[np.Node] {
			return fmt.Errorf("%w: node %d listed twice for job %d", ErrBadPlace, np.Node, p.Job)
		}
		c.seenNode[np.Node] = true
		if c.nodes[np.Node].drained {
			return fmt.Errorf("%w: node %d", ErrDrained, np.Node)
		}
		if c.nodes[np.Node].down {
			return fmt.Errorf("%w: node %d", ErrDown, np.Node)
		}
		if len(np.Threads) == 0 {
			return fmt.Errorf("%w: no threads on node %d for job %d", ErrBadPlace, np.Node, p.Job)
		}
		if np.MemoryMB < 0 {
			return fmt.Errorf("%w: negative memory on node %d", ErrBadPlace, np.Node)
		}
		n := c.nodes[np.Node]
		clear(c.seenThread)
		for _, t := range np.Threads {
			if t < 0 || t >= len(n.owner) {
				return fmt.Errorf("%w: thread %d out of range on node %d", ErrBadPlace, t, np.Node)
			}
			if c.seenThread[t] {
				return fmt.Errorf("%w: thread %d listed twice on node %d", ErrBadPlace, t, np.Node)
			}
			c.seenThread[t] = true
			if n.owner[t] != NoJob {
				return fmt.Errorf("%w: node %d thread %d held by job %d",
					ErrThreadBusy, np.Node, t, n.owner[t])
			}
		}
		if free := n.memMB - n.memUsedSum; np.MemoryMB > free {
			return fmt.Errorf("%w: node %d has %d MB free, need %d MB",
				ErrNoMemory, np.Node, free, np.MemoryMB)
		}
	}
	for _, np := range p.Nodes {
		n := c.nodes[np.Node]
		for _, t := range np.Threads {
			n.owner[t] = p.Job
			n.freeInLayer[t%n.tpc]--
		}
		n.free -= len(np.Threads)
		n.threads[p.Job] += len(np.Threads)
		n.memUsed[p.Job] += np.MemoryMB
		n.memUsedSum += np.MemoryMB
		c.jobNodes[p.Job] = append(c.jobNodes[p.Job], np.Node)
	}
	return nil
}

func (c *refCluster) Release(id JobID) ([]int, error) {
	nodes, ok := c.jobNodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %d", ErrUnknownJob, id)
	}
	for _, ni := range nodes {
		n := c.nodes[ni]
		for t, o := range n.owner {
			if o == id {
				n.owner[t] = NoJob
				n.free++
				n.freeInLayer[t%n.tpc]++
			}
		}
		n.memUsedSum -= n.memUsed[id]
		delete(n.threads, id)
		delete(n.memUsed, id)
	}
	delete(c.jobNodes, id)
	return nodes, nil
}

func (n *refNode) idle() bool      { return n.free == len(n.owner) }
func (n *refNode) available() bool { return !n.drained && !n.down }
func (n *refNode) layerFree(l int) bool {
	return l >= 0 && l < n.tpc && n.freeInLayer[l] == n.cores
}

func (n *refNode) jobs() []JobID {
	var ids []JobID
	for id := range n.threads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (n *refNode) jobThreads(id JobID) []int {
	var out []int
	for t, o := range n.owner {
		if o == id {
			out = append(out, t)
		}
	}
	return out
}

func (n *refNode) freeSiblingThreads(sibling int) []int {
	var out []int
	for core := 0; core < n.cores; core++ {
		if t := core*n.tpc + sibling; n.owner[t] == NoJob {
			out = append(out, t)
		}
	}
	return out
}

// The reference's index queries, by rescan.

func (c *refCluster) idleNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if n.idle() && n.available() {
			out = append(out, i)
		}
	}
	return out
}

func (c *refCluster) busyFreeLayerNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if n.idle() || !n.available() {
			continue
		}
		for l := 0; l < n.tpc; l++ {
			if n.layerFree(l) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func (c *refCluster) shareCandidates(l, memMB int) []int {
	var out []int
	for i, n := range c.nodes {
		if !n.idle() && n.available() && n.layerFree(l) && n.memMB-n.memUsedSum >= memMB {
			out = append(out, i)
		}
	}
	return out
}

// compareClusters requires every observable of got to equal the
// reference's.
func compareClusters(t *testing.T, step int, got *Cluster, want *refCluster, ids []JobID) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	cfg := got.Config()
	busyThreads, busyNodes, sharedNodes := 0, 0, 0
	var drained, down []int
	for ni := 0; ni < got.Size(); ni++ {
		g, w := got.Node(ni), want.nodes[ni]
		for th := 0; th < g.threads; th++ {
			if g.Owner(th) != w.owner[th] {
				fail("node %d Owner(%d) = %d, reference %d", ni, th, g.Owner(th), w.owner[th])
			}
		}
		if g.FreeThreads() != w.free || g.Idle() != w.idle() || g.Available() != w.available() {
			fail("node %d free/idle/available = %d/%v/%v, reference %d/%v/%v",
				ni, g.FreeThreads(), g.Idle(), g.Available(), w.free, w.idle(), w.available())
		}
		if g.MemFreeMB() != w.memMB-w.memUsedSum {
			fail("node %d MemFreeMB = %d, reference %d", ni, g.MemFreeMB(), w.memMB-w.memUsedSum)
		}
		for l := -1; l <= cfg.ThreadsPerCore; l++ {
			if got.LayerFree(ni, Layer(l)) != w.layerFree(l) {
				fail("node %d LayerFree(%d) = %v, reference %v", ni, l, got.LayerFree(ni, Layer(l)), w.layerFree(l))
			}
		}
		for l := 0; l < cfg.ThreadsPerCore; l++ {
			if gs, ws := g.FreeSiblingThreads(l), w.freeSiblingThreads(l); !slices.Equal(gs, ws) {
				fail("node %d FreeSiblingThreads(%d) = %v, reference %v", ni, l, gs, ws)
			}
		}
		if gj, wj := g.Jobs(), w.jobs(); !slices.Equal(gj, wj) || g.SharingDegree() != len(w.threads) {
			fail("node %d Jobs = %v (degree %d), reference %v", ni, gj, g.SharingDegree(), wj)
		}
		for _, id := range ids {
			if gt, wt := g.JobThreads(id), w.jobThreads(id); !slices.Equal(gt, wt) {
				fail("node %d JobThreads(%d) = %v, reference %v", ni, id, gt, wt)
			}
			if g.JobMemoryMB(id) != w.memUsed[id] {
				fail("node %d JobMemoryMB(%d) = %d, reference %d", ni, id, g.JobMemoryMB(id), w.memUsed[id])
			}
		}
		busyThreads += len(w.owner) - w.free
		if !w.idle() {
			busyNodes++
		}
		if len(w.threads) >= 2 {
			sharedNodes++
		}
		if w.drained {
			drained = append(drained, ni)
		}
		if w.down {
			down = append(down, ni)
		}
	}
	for _, id := range ids {
		_, holds := want.jobNodes[id]
		if gn := got.JobNodes(id); !slices.Equal(gn, want.jobNodes[id]) || got.Holds(id) != holds {
			fail("JobNodes(%d) = %v (holds %v), reference %v (holds %v)", id, gn, got.Holds(id), want.jobNodes[id], holds)
		}
	}
	if g, w := got.AppendIdleNodes(nil), want.idleNodes(); !slices.Equal(g, w) || got.CountIdle() != len(w) {
		fail("IdleNodes = %v (count %d), reference %v", g, got.CountIdle(), w)
	}
	if g, w := got.AppendBusyFreeLayerNodes(nil), want.busyFreeLayerNodes(); !slices.Equal(g, w) {
		fail("BusyFreeLayerNodes = %v, reference %v", g, w)
	}
	for l := 0; l < cfg.ThreadsPerCore; l++ {
		for _, mem := range []int{0, 1024, cfg.MemoryPerNodeMB / 2} {
			if g, w := got.ShareCandidates(Layer(l), mem), want.shareCandidates(l, mem); !slices.Equal(g, w) {
				fail("ShareCandidates(%d, %d) = %v, reference %v", l, mem, g, w)
			}
		}
	}
	if got.BusyThreads() != busyThreads || got.BusyNodes() != busyNodes || got.SharedNodes() != sharedNodes {
		fail("busy threads/nodes, shared = %d/%d/%d, reference %d/%d/%d",
			got.BusyThreads(), got.BusyNodes(), got.SharedNodes(), busyThreads, busyNodes, sharedNodes)
	}
	if !slices.Equal(got.DrainedNodes(), drained) || !slices.Equal(got.DownNodes(), down) {
		fail("drained/down = %v/%v, reference %v/%v", got.DrainedNodes(), got.DownNodes(), drained, down)
	}
}

// allocateErrorKinds names every way Allocate can refuse, by a fragment of
// its message.
var allocateErrorKinds = []string{
	"placement for NoJob", "empty placement", "node index out of range", "listed twice for job",
	"node is drained", "node is down", "no threads on node", "negative memory",
	"out of range on node", "listed twice on node", "already allocated", "insufficient node memory",
}

// Differential: seeded sequences of layer, exclusive and hand-built
// placements (second allocations of a live job included), releases, drains
// and down/repair cycles drive the mask-based cluster and the per-thread
// reference side by side. Every step must return the same error string or
// node list, and leave every observable equal. One configuration fits a
// node's threads in one mask word, the other needs three.
func TestClusterMatchesReference(t *testing.T) {
	configs := []Config{
		{Nodes: 10, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 8192},
		{Nodes: 7, CoresPerNode: 36, ThreadsPerCore: 4, MemoryPerNodeMB: 8192},
	}
	const steps = 4000
	seen := map[string]int{}
	sameNode, otherNode, releases := 0, 0, 0
	for ci, cfg := range configs {
		rng := rand.New(rand.NewPCG(uint64(ci)+1, 99))
		got, want := New(cfg), newRefCluster(cfg)
		var live []JobID
		next := JobID(1)
		tpn := cfg.ThreadsPerNode()

		var held []int // when set, the nodes to place on: ones a live job holds
		randNodes := func(k int) []int {
			if held != nil {
				return held
			}
			var out []int
			for range k {
				out = append(out, rng.IntN(cfg.Nodes))
			}
			if rng.IntN(8) != 0 { // usually distinct
				slices.Sort(out)
				out = slices.Compact(out)
			}
			return out
		}
		memory := func() int {
			switch rng.IntN(10) {
			case 0:
				return -1 - rng.IntN(10)
			case 1:
				return cfg.MemoryPerNodeMB + 1
			}
			return rng.IntN(cfg.MemoryPerNodeMB / 2)
		}
		handBuilt := func() []int {
			var ts []int
			for range rng.IntN(6) {
				switch rng.IntN(12) {
				case 0:
					ts = append(ts, tpn+rng.IntN(70))
				case 1:
					ts = append(ts, -1-rng.IntN(3))
				case 2:
					if len(ts) > 0 {
						ts = append(ts, ts[rng.IntN(len(ts))])
						continue
					}
					fallthrough
				default:
					ts = append(ts, rng.IntN(tpn))
				}
			}
			return ts
		}
		pickJob := func() JobID {
			switch {
			case len(live) > 0 && rng.IntN(4) == 0:
				id := live[rng.IntN(len(live))]
				if rng.IntN(2) == 0 {
					held = want.jobNodes[id][:1]
				}
				return id
			case rng.IntN(60) == 0:
				return NoJob
			}
			next++
			return next - 1
		}

		for step := 0; step < steps; step++ {
			var gotErr, wantErr error
			switch op := rng.IntN(20); {
			case op < 12: // allocate
				held = nil
				id := pickJob()
				var p Placement
				switch rng.IntN(4) {
				case 0:
					p = got.ExclusivePlacement(id, randNodes(1+rng.IntN(2)), memory())
				case 1, 2:
					p = got.LayerPlacement(id, randNodes(1+rng.IntN(3)), Layer(rng.IntN(cfg.ThreadsPerCore)), memory())
				default:
					p = Placement{Job: id}
					for _, ni := range randNodes(rng.IntN(3)) {
						if rng.IntN(15) == 0 {
							ni = cfg.Nodes + rng.IntN(3)
						}
						p.Nodes = append(p.Nodes, NodePlacement{Node: ni, Threads: handBuilt(), MemoryMB: memory()})
					}
				}
				before := slices.Clone(want.jobNodes[id])
				gotErr, wantErr = got.Allocate(p), want.Allocate(p)
				switch {
				case wantErr != nil:
				case before == nil:
					live = append(live, id)
				case slices.ContainsFunc(p.Nodes, func(np NodePlacement) bool { return slices.Contains(before, np.Node) }):
					sameNode++
				default:
					otherNode++
				}
			case op < 16: // release a live job, now and then an unknown one
				id := next + 100
				i := -1
				if len(live) > 0 && rng.IntN(10) != 0 {
					i = rng.IntN(len(live))
					id = live[i]
				}
				gn, ge := got.Release(id)
				wn, we := want.Release(id)
				gotErr, wantErr = ge, we
				if !slices.Equal(gn, wn) {
					t.Fatalf("config %d step %d: Release(%d) = %v, reference %v", ci, step, id, gn, wn)
				}
				if i >= 0 {
					live = slices.Delete(live, i, i+1)
					releases++
				}
			case op < 18: // resume a drained node, or now and then drain one
				ni := rng.IntN(cfg.Nodes)
				if d := !want.nodes[ni].drained; !d || rng.IntN(3) == 0 {
					got.SetDrained(ni, d)
					want.nodes[ni].drained = d
				}
			default: // repair a down node, or now and then down an empty one
				ni := rng.IntN(cfg.Nodes)
				switch w := want.nodes[ni]; {
				case w.down:
					got.SetDown(ni, false)
					w.down = false
				case len(w.threads) == 0 && rng.IntN(3) == 0:
					got.SetDown(ni, true)
					w.down = true
				}
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("config %d step %d: error %v, reference %v", ci, step, gotErr, wantErr)
			}
			if gotErr != nil {
				for _, kind := range allocateErrorKinds {
					if strings.Contains(gotErr.Error(), kind) {
						seen[kind]++
					}
				}
				if errors.Is(gotErr, ErrUnknownJob) {
					seen["unknown job"]++
				}
			}
			ids := append(slices.Clone(live), next, next+100)
			compareClusters(t, step, got, want, ids)
		}
	}
	for _, kind := range append(allocateErrorKinds, "unknown job") {
		if seen[kind] == 0 {
			t.Errorf("no step drew the %q refusal", kind)
		}
	}
	t.Logf("%d second allocations on a node the job holds, %d on another, %d releases; refusals %v",
		sameNode, otherNode, releases, seen)
	if sameNode < 20 || otherNode < 20 || releases < 500 {
		t.Errorf("only %d second allocations on a node the job holds, %d on another, %d releases",
			sameNode, otherNode, releases)
	}
}
