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
func (s *nodeSet) appendTo(out []int) []int { return appendBits(out, s.words) }

// The thread masks of a node (Node.busy, resident.mask) are plain word
// slices over thread indices; these are their operations.

func hasBit(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// appendBits appends the indices of m's set bits, ascending, to out.
func appendBits(out []int, m []uint64) []int {
	for wi, w := range m {
		base := wi * 64
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// orInto sets in dst every bit set in m.
func orInto(dst, m []uint64) {
	for i, w := range m {
		dst[i] |= w
	}
}

// overlaps reports whether a and b share a set bit.
func overlaps(a, b []uint64) bool {
	for i, w := range b {
		if a[i]&w != 0 {
			return true
		}
	}
	return false
}

func popcount(m []uint64) int {
	k := 0
	for _, w := range m {
		k += bits.OnesCount64(w)
	}
	return k
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
	// changed holds the nodes of the latest changes, change k at
	// changed[k&(len(changed)-1)]; its length is a power of two of at
	// least the node count. See ChangedSince.
	changed []int32
}

func newIndex(cfg Config) *index {
	ix := &index{
		idleAvail:     newNodeSet(cfg.Nodes),
		nonIdle:       newNodeSet(cfg.Nodes),
		shared:        newNodeSet(cfg.Nodes),
		layerFreeBusy: make([]*nodeSet, cfg.ThreadsPerCore),
		changed:       make([]int32, 1<<bits.Len(uint(cfg.Nodes))),
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
// busy mask and residents. It is O(threads-per-core × mask words) and is
// called after any state change of the node (allocate, release, drain,
// repair).
func (c *Cluster) reindexNode(ni int) {
	c.idx.changed[c.changes&uint64(len(c.idx.changed)-1)] = int32(ni)
	c.changes++
	n := c.nodes[ni]
	idle := n.Idle()
	avail := n.Available()
	c.idx.idleAvail.set(ni, idle && avail)
	c.idx.nonIdle.set(ni, !idle)
	c.idx.shared.set(ni, len(n.res) >= 2)
	for l := 0; l < n.tpc; l++ {
		c.idx.layerFreeBusy[l].set(ni, avail && !idle && n.layerFree(l))
	}
}

// Changes returns a counter that moves on every change of any node's
// allocations, drain or down state — every Allocate, Release, SetDrained and
// SetDown passes through reindexNode. Two equal readings of one cluster
// bracket a span in which no node changed, so a caller may keep what it
// derived from the cluster across that span.
func (c *Cluster) Changes() uint64 { return c.changes }

// ChangedSince appends to dst the nodes that changed since Changes read
// since, in change order and repeated when a node changed more than once,
// and reports true; a caller may then keep what it derived from the other
// nodes. The cluster remembers at least as many changes as it has nodes;
// when more happened since, it appends nothing and reports false.
func (c *Cluster) ChangedSince(since uint64, dst []int) ([]int, bool) {
	if since > c.changes || c.changes-since > uint64(len(c.idx.changed)) {
		return dst, false
	}
	mask := uint64(len(c.idx.changed) - 1)
	for k := since; k < c.changes; k++ {
		dst = append(dst, int(c.idx.changed[k&mask]))
	}
	return dst, true
}

// AppendBusyFreeLayerNodes appends the busy, schedulable nodes with at least
// one entirely free hardware-thread layer to out, ascending — the sharing
// policies' co-allocation candidate universe.
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
