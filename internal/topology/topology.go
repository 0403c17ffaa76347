// Package topology models the cluster interconnect at the granularity that
// matters for node sharing: which switch group each node hangs off.
//
// A job confined to one switch group communicates over the crossbar; a job
// spread across groups pushes its halo exchanges and collectives through
// the uplinks, raising its effective network demand. The topology therefore
// supplies a network-stress multiplier as a function of allocation spread,
// which the simulator folds into the interference model, and a compact node
// ordering the schedulers use to keep allocations narrow.
//
// The model is a two-level tree (leaf switches under a full-bisection core),
// the common abstraction for both fat-tree and dragonfly machines at
// scheduling granularity.
package topology

import (
	"fmt"
	"slices"
)

// Topology is a two-level interconnect: Groups leaf switches with
// NodesPerGroup nodes each. Node i belongs to group i / NodesPerGroup.
type Topology struct {
	// Groups is the leaf-switch count.
	Groups int
	// NodesPerGroup is the node count per leaf switch.
	NodesPerGroup int
	// UplinkPenalty scales the network-stress growth per additional group
	// an allocation spans: factor = 1 + UplinkPenalty·(spread−1)/(Groups−1).
	// 0 makes the topology transparent; 0.6 approximates the measured
	// cost of all-to-all traffic leaving the leaf on oversubscribed trees.
	UplinkPenalty float64
}

// Default returns a topology for n nodes: leaf switches of 8 nodes (padding
// the last group) with a 0.6 uplink penalty.
func Default(n int) Topology {
	per := 8
	groups := (n + per - 1) / per
	if groups < 1 {
		groups = 1
	}
	return Topology{Groups: groups, NodesPerGroup: per, UplinkPenalty: 0.6}
}

// Validate checks the shape.
func (t Topology) Validate() error {
	if t.Groups <= 0 || t.NodesPerGroup <= 0 {
		return fmt.Errorf("topology: %d groups × %d nodes", t.Groups, t.NodesPerGroup)
	}
	if t.UplinkPenalty < 0 {
		return fmt.Errorf("topology: negative uplink penalty %g", t.UplinkPenalty)
	}
	return nil
}

// GroupOf returns the leaf switch of node ni.
func (t Topology) GroupOf(ni int) int {
	if ni < 0 {
		panic(fmt.Sprintf("topology: GroupOf(%d)", ni))
	}
	g := ni / t.NodesPerGroup
	if g >= t.Groups {
		g = t.Groups - 1 // padded final group
	}
	return g
}

// Spread returns the number of distinct leaf switches an allocation spans
// (0 for an empty allocation).
func (t Topology) Spread(nodes []int) int {
	seen := map[int]bool{}
	for _, ni := range nodes {
		seen[t.GroupOf(ni)] = true
	}
	return len(seen)
}

// NetworkFactor returns the effective network-stress multiplier for an
// allocation spanning spread groups: 1 within one leaf, growing linearly to
// 1 + UplinkPenalty across the whole machine.
func (t Topology) NetworkFactor(spread int) float64 {
	if spread <= 1 || t.Groups <= 1 {
		return 1
	}
	if spread > t.Groups {
		spread = t.Groups
	}
	return 1 + t.UplinkPenalty*float64(spread-1)/float64(t.Groups-1)
}

// Compactor reorders candidate nodes for locality: groups with the most
// candidate nodes first (so small jobs fit inside one leaf), nodes ascending
// within each group, group index breaking ties. Schedulers feed their idle
// list through it to minimize spread. It keeps its working memory, so a
// caller that orders candidates on every scheduling pass does not allocate
// each time.
type Compactor struct {
	slot  []int // per group: its candidate count, then its next free slot
	order []int // groups holding candidates, most candidates first
	out   []int
}

// Order returns nodes in compact order, in c's memory: the result is valid
// until the next call.
func (c *Compactor) Order(t Topology, nodes []int) []int {
	c.slot = append(c.slot[:0], make([]int, t.Groups)...)
	for _, ni := range nodes {
		c.slot[t.GroupOf(ni)]++
	}
	c.order = c.order[:0]
	for g, k := range c.slot {
		if k > 0 {
			c.order = append(c.order, g)
		}
	}
	// order is ascending, so a stable sort by size alone leaves the group
	// index as the tie-break.
	slices.SortStableFunc(c.order, func(a, b int) int { return c.slot[b] - c.slot[a] })
	// Turn each group's size into its first slot and scatter the nodes.
	at := 0
	for _, g := range c.order {
		at, c.slot[g] = at+c.slot[g], at
	}
	c.out = append(c.out[:0], nodes...)
	for _, ni := range nodes {
		g := t.GroupOf(ni)
		c.out[c.slot[g]] = ni
		c.slot[g]++
	}
	// slot[g] is now group g's end; sort each group's run (a no-op for the
	// ascending lists schedulers pass).
	at = 0
	for _, g := range c.order {
		slices.Sort(c.out[at:c.slot[g]])
		at = c.slot[g]
	}
	return c.out
}
