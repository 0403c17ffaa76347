package cluster

import "fmt"

// Layer selects one hardware-thread layer of a node: layer 0 is the set of
// primary threads (one per core), layer 1 the set of first SMT siblings, and
// so on. The paper's sharing strategies allocate whole layers: a job runs one
// process/thread per core, and a co-allocated job binds to the sibling layer
// of the same cores, oversubscribing them through hyper-threading.
type Layer int

// Common layers on 2-way SMT machines.
const (
	PrimaryLayer   Layer = 0
	SecondaryLayer Layer = 1
)

// LayerFree reports whether every thread of the given layer is free on node
// ni: one AND of the node's busy mask with the layer's mask per 64 threads —
// this is the scheduler's innermost candidate probe.
func (c *Cluster) LayerFree(ni int, l Layer) bool {
	n := c.Node(ni)
	if int(l) < 0 || int(l) >= n.tpc {
		return false
	}
	return n.layerFree(int(l))
}

// LayerThreads returns the thread indices making up layer l on node ni. The
// slice is shared by every caller and must not be modified.
func (c *Cluster) LayerThreads(ni int, l Layer) []int {
	n := c.Node(ni)
	if int(l) < 0 || int(l) >= n.tpc {
		panic(fmt.Sprintf("cluster: layer %d out of range (threads/core %d)", l, n.tpc))
	}
	return c.layerIdx[l]
}

// ExclusivePlacement builds a placement giving job id every hardware thread
// and memMB of memory on each listed node — the standard node allocation the
// paper's baselines use.
func (c *Cluster) ExclusivePlacement(id JobID, nodes []int, memPerNodeMB int) Placement {
	p := Placement{Job: id, Nodes: make([]NodePlacement, 0, len(nodes))}
	for _, ni := range nodes {
		n := c.Node(ni)
		p.Nodes = append(p.Nodes, NodePlacement{Node: n.id, Threads: c.allIdx, MemoryMB: memPerNodeMB})
	}
	return p
}

// LayerPlacement builds a placement giving job id one hardware-thread layer
// and memMB of memory on each listed node — the allocation unit of the
// sharing strategies.
func (c *Cluster) LayerPlacement(id JobID, nodes []int, l Layer, memPerNodeMB int) Placement {
	p := Placement{Job: id, Nodes: make([]NodePlacement, 0, len(nodes))}
	for _, ni := range nodes {
		p.Nodes = append(p.Nodes, NodePlacement{
			Node: ni, Threads: c.LayerThreads(ni, l), MemoryMB: memPerNodeMB,
		})
	}
	return p
}

// AppendIdleNodes appends the indices of fully idle, schedulable (neither
// drained nor down) nodes to dst, ascending. Served from the free-capacity
// index: the walk touches set bits only, not every node.
func (c *Cluster) AppendIdleNodes(dst []int) []int { return c.idx.idleAvail.appendTo(dst) }

// CountIdle returns the number of fully idle, schedulable nodes.
func (c *Cluster) CountIdle() int { return c.idx.idleAvail.count }

// ShareCandidates returns the indices of nodes where layer l is entirely
// free, at least memMB of memory is available, and the node is not idle
// (i.e. a co-allocation target: someone is already there). Ascending order,
// enumerated from the free-capacity index.
func (c *Cluster) ShareCandidates(l Layer, memMB int) []int {
	if int(l) < 0 || int(l) >= c.cfg.ThreadsPerCore {
		return nil
	}
	var out []int
	for _, i := range c.idx.layerFreeBusy[l].appendTo(nil) {
		if c.nodes[i].MemFreeMB() >= memMB {
			out = append(out, i)
		}
	}
	return out
}

// BusyThreads returns the number of allocated hardware threads cluster-wide.
func (c *Cluster) BusyThreads() int { return c.idx.busyThreads }

// BusyNodes returns the number of nodes with at least one allocated thread.
func (c *Cluster) BusyNodes() int { return c.idx.nonIdle.count }

// SharedNodes returns the number of nodes occupied by two or more jobs.
func (c *Cluster) SharedNodes() int { return c.idx.shared.count }
