package cluster

import "fmt"

// Queries only the tests read. The mask-based cluster's differential in
// reference_test.go compares them with the per-thread reference after every
// step.

// JobNodes returns the node indices job id occupies, in allocation order,
// or nil if the job holds nothing.
func (c *Cluster) JobNodes(id JobID) []int {
	nodes := c.jobNodes[id]
	out := make([]int, len(nodes))
	copy(out, nodes)
	return out
}

// DrainedNodes returns the indices of drained nodes, ascending.
func (c *Cluster) DrainedNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if n.drained {
			out = append(out, i)
		}
	}
	return out
}

// FreeSiblingThreads returns the hardware threads of layer `sibling`
// (0 = primary, 1 = first SMT sibling, ...) that are currently free,
// ascending. It panics if sibling is out of range for the SMT width.
func (n *Node) FreeSiblingThreads(sibling int) []int {
	if sibling < 0 || sibling >= n.tpc {
		panic(fmt.Sprintf("cluster: sibling %d out of range (threads/core %d)", sibling, n.tpc))
	}
	var out []int
	for c := 0; c < n.threads/n.tpc; c++ {
		if t := c*n.tpc + sibling; !hasBit(n.busy, t) {
			out = append(out, t)
		}
	}
	return out
}
