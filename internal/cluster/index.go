package cluster

import "math/bits"

// This file is the incremental free-capacity index: bitsets over node
// indices maintained on every allocation, release, drain, and repair, so the
// scheduler hot path answers "which nodes are idle?", "which busy nodes have
// a fully free SMT layer?", and "how many threads are busy?" without
// rescanning all nodes per candidate. Before the index, placeShared /
// placeGuarded spent ~60% of a simulation cell inside LayerFree's
// FreeSiblingThreads scan (one slice allocation per probe); with it, layer
// probes are an integer compare and candidate enumeration walks set bits
// only.
//
// The index is pure acceleration: every query returns exactly what a full
// rescan would (ascending node order included), a property pinned by the
// equivalence tests in index_test.go and the CLI golden files.

// nodeSet is a fixed-capacity bitset over node indices with ascending
// iteration — the index's building block.
type nodeSet struct {
	words []uint64
	count int
}

func newNodeSet(n int) *nodeSet { return &nodeSet{words: make([]uint64, (n+63)/64)} }

// set adds or removes i according to present.
func (s *nodeSet) set(i int, present bool) {
	w, b := i/64, uint64(1)<<(i%64)
	if present {
		if s.words[w]&b == 0 {
			s.words[w] |= b
			s.count++
		}
	} else if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.count--
	}
}

// has reports membership of i.
func (s *nodeSet) has(i int) bool { return s.words[i/64]&(uint64(1)<<(i%64)) != 0 }

// appendTo appends the members in ascending order to out.
func (s *nodeSet) appendTo(out []int) []int {
	for wi, w := range s.words {
		base := wi * 64
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// index holds the cluster's incremental capacity bookkeeping.
type index struct {
	// idleAvail: idle and schedulable (neither drained nor down).
	idleAvail *nodeSet
	// nonIdle: at least one allocated thread (regardless of availability).
	nonIdle *nodeSet
	// shared: two or more resident jobs.
	shared *nodeSet
	// layerFreeBusy[l]: busy, schedulable, and layer l entirely free — the
	// co-allocation candidate set.
	layerFreeBusy []*nodeSet
	// busyThreads is the cluster-wide allocated hardware-thread count.
	busyThreads int
}

func newIndex(cfg Config) *index {
	ix := &index{
		idleAvail:     newNodeSet(cfg.Nodes),
		nonIdle:       newNodeSet(cfg.Nodes),
		shared:        newNodeSet(cfg.Nodes),
		layerFreeBusy: make([]*nodeSet, cfg.ThreadsPerCore),
	}
	for l := range ix.layerFreeBusy {
		ix.layerFreeBusy[l] = newNodeSet(cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		ix.idleAvail.set(i, true)
	}
	return ix
}

// reindexNode recomputes node ni's membership in every set from the node's
// own counters. It is O(threads-per-core) and is called after any state
// change of the node (allocate, release, drain, repair).
func (c *Cluster) reindexNode(ni int) {
	n := c.nodes[ni]
	idle := n.free == len(n.owner)
	avail := !n.drained && !n.down
	c.idx.idleAvail.set(ni, idle && avail)
	c.idx.nonIdle.set(ni, !idle)
	c.idx.shared.set(ni, len(n.threads) >= 2)
	for l := 0; l < n.tpc; l++ {
		c.idx.layerFreeBusy[l].set(ni, avail && !idle && n.freeInLayer[l] == n.cores)
	}
}

// BusyFreeLayerNodes returns the busy, schedulable nodes with at least one
// entirely free hardware-thread layer, ascending — the sharing policies'
// co-allocation candidate universe.
func (c *Cluster) BusyFreeLayerNodes() []int { return c.AppendBusyFreeLayerNodes(nil) }

// AppendBusyFreeLayerNodes appends what BusyFreeLayerNodes returns to out,
// for callers that reuse a buffer.
func (c *Cluster) AppendBusyFreeLayerNodes(out []int) []int {
	for wi := range c.idx.layerFreeBusy[0].words {
		var union uint64
		for _, s := range c.idx.layerFreeBusy {
			union |= s.words[wi]
		}
		base := wi * 64
		for union != 0 {
			out = append(out, base+bits.TrailingZeros64(union))
			union &= union - 1
		}
	}
	return out
}
