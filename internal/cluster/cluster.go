// Package cluster models an HPC machine at hardware-thread granularity.
//
// The model mirrors the sharing granularity studied by the paper: nodes are
// built from cores, each core exposes ThreadsPerCore hardware threads
// (2 on the evaluated SMT/hyper-threading systems), and node sharing means
// co-allocating a second job onto the sibling hardware threads of cores whose
// primary threads are already owned by another job. The package is pure
// resource accounting — it knows nothing about time, applications, or
// policies; those live in higher layers.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// JobID identifies a job for allocation accounting. IDs are assigned by the
// job layer; 0 is reserved as "no owner".
type JobID int64

// NoJob marks an unallocated hardware thread.
const NoJob JobID = 0

// Config describes a homogeneous cluster. Homogeneity matches the evaluated
// system (a uniform partition of SMT-capable nodes); heterogeneous machines
// can be modeled as multiple clusters behind one scheduler if ever needed.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the number of physical cores per node.
	CoresPerNode int
	// ThreadsPerCore is the SMT width (2 for the hyper-threading systems the
	// paper evaluates; 1 disables sharing-by-oversubscription entirely).
	ThreadsPerCore int
	// MemoryPerNodeMB is the usable memory per node in MiB. Memory is the
	// resource that most often forbids co-allocation in practice, so it is
	// tracked explicitly.
	MemoryPerNodeMB int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: config needs at least one node, got %d", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster: config needs at least one core per node, got %d", c.CoresPerNode)
	case c.ThreadsPerCore <= 0:
		return fmt.Errorf("cluster: config needs at least one thread per core, got %d", c.ThreadsPerCore)
	case c.MemoryPerNodeMB <= 0:
		return fmt.Errorf("cluster: config needs positive node memory, got %d MB", c.MemoryPerNodeMB)
	}
	return nil
}

// ThreadsPerNode returns the total hardware threads a node exposes.
func (c Config) ThreadsPerNode() int { return c.CoresPerNode * c.ThreadsPerCore }

// Trinity returns a configuration modeled after a Trinity-class partition:
// dual-socket 16-core nodes (32 cores), 2-way SMT, 128 GiB of memory.
// n selects the number of nodes.
func Trinity(n int) Config {
	return Config{Nodes: n, CoresPerNode: 32, ThreadsPerCore: 2, MemoryPerNodeMB: 128 * 1024}
}

// Node is one compute node. Hardware threads are indexed
// core*ThreadsPerCore + sibling, so the primary thread of core c is index
// c*tpc and its SMT siblings follow immediately.
//
// Ownership is kept by mask, not by thread: busy is a bitset over the
// node's hardware threads and each resident job holds the mask of the
// threads it owns. Every query (Owner, JobThreads, FreeSiblingThreads,
// LayerFree) is derived from those two.
type Node struct {
	id      int
	tpc     int
	threads int
	memMB   int

	busy    []uint64   // allocated hardware threads
	res     []resident // jobs holding threads here, ascending ID
	free    int        // free hardware threads
	drained bool       // administratively removed from scheduling
	down    bool       // failed hardware: no allocations until repaired

	layers     [][]uint64 // the cluster's per-layer masks (read-only)
	memUsedSum int        // total reserved memory, MB
}

// resident is one job's share of a node: the threads it holds and the
// memory it reserves. mask may be one of the cluster's shared layer or
// whole-node masks, so it is never written through.
type resident struct {
	id    JobID
	mask  []uint64
	memMB int
}

func newNode(id int, cfg Config, layers [][]uint64) *Node {
	n := &Node{
		id:      id,
		tpc:     cfg.ThreadsPerCore,
		threads: cfg.ThreadsPerNode(),
		memMB:   cfg.MemoryPerNodeMB,
		busy:    make([]uint64, (cfg.ThreadsPerNode()+63)/64),
		layers:  layers,
	}
	n.free = n.threads
	return n
}

// FreeThreads returns the number of unallocated hardware threads.
func (n *Node) FreeThreads() int { return n.free }

// Idle reports whether no job holds any thread on the node.
func (n *Node) Idle() bool { return n.free == n.threads }

// Drained reports whether the node is administratively removed from
// scheduling (running jobs keep their allocations; no new work lands).
func (n *Node) Drained() bool { return n.drained }

// Down reports whether the node is failed. Unlike draining — which lets
// running jobs finish in place — a node goes down with its residents dead;
// the engine kills and requeues them before marking the node down.
func (n *Node) Down() bool { return n.down }

// Available reports whether the node may accept new allocations: neither
// drained nor down.
func (n *Node) Available() bool { return !n.drained && !n.down }

// MemFreeMB returns the unreserved memory on the node.
func (n *Node) MemFreeMB() int { return n.memMB - n.memUsedSum }

// Owner returns the job holding hardware thread t, or NoJob.
func (n *Node) Owner(t int) JobID {
	for _, r := range n.res {
		if hasBit(r.mask, t) {
			return r.id
		}
	}
	return NoJob
}

// Jobs returns the IDs of jobs holding at least one thread, in ascending
// order (deterministic for scheduling and tests).
func (n *Node) Jobs() []JobID {
	ids := make([]JobID, len(n.res))
	for i, r := range n.res {
		ids[i] = r.id
	}
	return ids
}

// findResident returns the index of job id in n.res and whether it is there;
// when it is not, the index is where it would be inserted.
func (n *Node) findResident(id JobID) (int, bool) {
	return slices.BinarySearchFunc(n.res, id, func(r resident, id JobID) int { return cmp.Compare(r.id, id) })
}

// JobThreads returns the hardware threads job id holds on this node,
// ascending.
func (n *Node) JobThreads(id JobID) []int {
	i, ok := n.findResident(id)
	if !ok {
		return nil
	}
	return appendBits(nil, n.res[i].mask)
}

// JobMemoryMB returns the memory reserved by job id on this node.
func (n *Node) JobMemoryMB(id JobID) int {
	if i, ok := n.findResident(id); ok {
		return n.res[i].memMB
	}
	return 0
}

// SharingDegree returns the number of distinct jobs on the node; 0 means
// idle, 1 exclusive, ≥2 shared.
func (n *Node) SharingDegree() int { return len(n.res) }

// layerFree reports whether no thread of layer l is allocated.
func (n *Node) layerFree(l int) bool { return !overlaps(n.busy, n.layers[l]) }

// Errors returned by allocation operations.
var (
	ErrThreadBusy  = errors.New("cluster: hardware thread already allocated")
	ErrNoMemory    = errors.New("cluster: insufficient node memory")
	ErrUnknownNode = errors.New("cluster: node index out of range")
	ErrUnknownJob  = errors.New("cluster: job holds no allocation")
	ErrBadPlace    = errors.New("cluster: malformed placement")
	ErrDrained     = errors.New("cluster: node is drained")
	ErrDown        = errors.New("cluster: node is down")
)

// NodePlacement is one node's share of a placement: which hardware threads a
// job binds to and how much node memory it reserves. Threads is read-only:
// the placements LayerThreads, LayerPlacement and ExclusivePlacement build
// all share one index list per cluster, so writing through it would corrupt
// every other placement of that shape.
type NodePlacement struct {
	Node     int
	Threads  []int
	MemoryMB int
}

// Placement is a job's complete allocation across nodes.
type Placement struct {
	Job   JobID
	Nodes []NodePlacement
}

// NodeIDs returns the distinct node indices the placement touches, in
// placement order.
func (p Placement) NodeIDs() []int {
	out := make([]int, 0, len(p.Nodes))
	for _, np := range p.Nodes {
		out = append(out, np.Node)
	}
	return out
}

// Cluster is the full machine: a set of nodes plus allocation indexes.
// It is not safe for concurrent use; the simulation is single-threaded.
type Cluster struct {
	cfg   Config
	nodes []*Node
	// jobNodes tracks which node indices each job occupies.
	jobNodes map[JobID][]int
	// idx is the incremental free-capacity index (see index.go).
	idx *index
	// changes counts node state changes; see Changes.
	changes uint64

	// layerIdx[l] lists the hardware threads of SMT layer l and allIdx every
	// thread of a node; layerMask and allMask are their masks. Nodes are
	// homogeneous, so one immutable list and mask per cluster serve every
	// placement (see NodePlacement.Threads).
	layerIdx  [][]int
	allIdx    []int
	layerMask [][]uint64
	allMask   []uint64

	// seenNode detects duplicate nodes and masks holds each node's thread
	// mask while Allocate validates.
	seenNode []bool
	masks    [][]uint64
}

// New builds a cluster from cfg. It panics on invalid configuration: cluster
// construction happens at program start from validated config, so an invalid
// config is a programming error, not an operational one.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{
		cfg: cfg, jobNodes: make(map[JobID][]int), idx: newIndex(cfg),
		seenNode: make([]bool, cfg.Nodes), layerMask: make([][]uint64, cfg.ThreadsPerCore),
	}
	c.nodes = make([]*Node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = newNode(i, cfg, c.layerMask)
	}
	// The masks come from the one mask builder, on a node that is still
	// empty, so it cannot refuse them.
	c.allIdx = make([]int, cfg.ThreadsPerNode())
	for t := range c.allIdx {
		c.allIdx[t] = t
	}
	c.allMask, _ = c.nodes[0].threadMask(c.allIdx)
	c.layerIdx = make([][]int, cfg.ThreadsPerCore)
	for l := range c.layerIdx {
		c.layerIdx[l] = make([]int, cfg.CoresPerNode)
		for core := range c.layerIdx[l] {
			c.layerIdx[l][core] = core*cfg.ThreadsPerCore + l
		}
		c.layerMask[l], _ = c.nodes[0].threadMask(c.layerIdx[l])
	}
	return c
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i. It panics if i is out of range (iteration bugs are
// programming errors).
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("%v: %d (cluster has %d nodes)", ErrUnknownNode, i, len(c.nodes)))
	}
	return c.nodes[i]
}

// Allocate validates and commits a placement atomically: either every thread
// and memory reservation in p is applied, or the cluster is unchanged and an
// error describes the first conflict found.
func (c *Cluster) Allocate(p Placement) error {
	if p.Job == NoJob {
		return fmt.Errorf("%w: placement for NoJob", ErrBadPlace)
	}
	if len(p.Nodes) == 0 {
		return fmt.Errorf("%w: empty placement for job %d", ErrBadPlace, p.Job)
	}
	// Phase 1: validate everything.
	clear(c.seenNode)
	c.masks = c.masks[:0]
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
		m, err := c.placementMask(n, np.Threads)
		if err != nil {
			return err
		}
		if np.MemoryMB > n.MemFreeMB() {
			return fmt.Errorf("%w: node %d has %d MB free, need %d MB",
				ErrNoMemory, np.Node, n.MemFreeMB(), np.MemoryMB)
		}
		c.masks = append(c.masks, m)
	}
	// Phase 2: commit.
	held := c.jobNodes[p.Job]
	for k, np := range p.Nodes {
		n := c.nodes[np.Node]
		orInto(n.busy, c.masks[k])
		n.free -= len(np.Threads)
		n.memUsedSum += np.MemoryMB
		n.addResident(p.Job, c.masks[k], np.MemoryMB)
		held = append(held, np.Node)
		c.idx.busyThreads += len(np.Threads)
		c.reindexNode(np.Node)
	}
	c.jobNodes[p.Job] = held
	clear(c.masks)
	return nil
}

// placementMask returns the mask of threads on node n, or the error for the
// first of them, in list order, that is out of range, listed twice or held.
// The cluster's own layer and whole-node lists have their masks already;
// they cannot be out of range or repeat a thread, and list their threads
// ascending, so the lowest held thread of the mask is the first in the list.
func (c *Cluster) placementMask(n *Node, threads []int) ([]uint64, error) {
	m := c.sharedMask(threads)
	if m == nil {
		return n.threadMask(threads)
	}
	for w := range m {
		if held := n.busy[w] & m[w]; held != 0 {
			return nil, n.busyError(w*64 + bits.TrailingZeros64(held))
		}
	}
	return m, nil
}

// sharedMask returns the precomputed mask of threads when threads is one of
// the cluster's own lists (LayerThreads, ExclusivePlacement), nil otherwise.
func (c *Cluster) sharedMask(threads []int) []uint64 {
	if len(threads) == len(c.allIdx) && &threads[0] == &c.allIdx[0] {
		return c.allMask
	}
	for l, idx := range c.layerIdx {
		if len(threads) == len(idx) && &threads[0] == &idx[0] {
			return c.layerMask[l]
		}
	}
	return nil
}

// threadMask builds the mask of a thread list on node n, checking each
// thread in list order: in range, not listed twice, not held.
func (n *Node) threadMask(threads []int) ([]uint64, error) {
	m := make([]uint64, len(n.busy))
	for _, t := range threads {
		switch {
		case t < 0 || t >= n.threads:
			return nil, fmt.Errorf("%w: thread %d out of range on node %d", ErrBadPlace, t, n.id)
		case hasBit(m, t):
			return nil, fmt.Errorf("%w: thread %d listed twice on node %d", ErrBadPlace, t, n.id)
		case hasBit(n.busy, t):
			return nil, n.busyError(t)
		}
		m[t>>6] |= 1 << (uint(t) & 63)
	}
	return m, nil
}

func (n *Node) busyError(t int) error {
	return fmt.Errorf("%w: node %d thread %d held by job %d", ErrThreadBusy, n.id, t, n.Owner(t))
}

// addResident records that job id holds mask and memMB on n. A job that
// already holds threads here keeps one entry, holding the union.
func (n *Node) addResident(id JobID, mask []uint64, memMB int) {
	i, ok := n.findResident(id)
	if !ok {
		n.res = slices.Insert(n.res, i, resident{id: id, mask: mask, memMB: memMB})
		return
	}
	r := &n.res[i]
	union := slices.Clone(r.mask) // r.mask may be a shared mask
	orInto(union, mask)
	r.mask = union
	r.memMB += memMB
}

// Release frees every resource held by job id across the cluster and returns
// the node indices that were touched. Releasing an unknown job returns
// ErrUnknownJob.
func (c *Cluster) Release(id JobID) ([]int, error) {
	nodes, ok := c.jobNodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %d", ErrUnknownJob, id)
	}
	for _, ni := range nodes {
		n := c.nodes[ni]
		// A node listed twice (the job allocated there twice) was cleared
		// on its first visit.
		if i, ok := n.findResident(id); ok {
			r := n.res[i]
			for w := range n.busy {
				n.busy[w] &^= r.mask[w]
			}
			k := popcount(r.mask)
			n.free += k
			c.idx.busyThreads -= k
			n.memUsedSum -= r.memMB
			n.res = slices.Delete(n.res, i, i+1)
		}
		c.reindexNode(ni)
	}
	delete(c.jobNodes, id)
	return nodes, nil
}

// Holds reports whether job id currently holds any resources.
func (c *Cluster) Holds(id JobID) bool {
	_, ok := c.jobNodes[id]
	return ok
}

// SetDrained marks node ni as drained (true) or schedulable (false).
// Draining does not disturb running allocations; it only stops new
// placements from landing there.
func (c *Cluster) SetDrained(ni int, drained bool) {
	c.Node(ni).drained = drained
	c.reindexNode(ni)
}

// SetDown marks node ni as failed (true) or repaired (false). The caller —
// the simulation engine — is responsible for evicting residents first; a
// down node with live allocations would model jobs running on dead hardware,
// so SetDown panics in that case.
func (c *Cluster) SetDown(ni int, down bool) {
	n := c.Node(ni)
	if down && len(n.res) > 0 {
		panic(fmt.Sprintf("cluster: node %d set down with %d resident jobs", ni, len(n.res)))
	}
	n.down = down
	c.reindexNode(ni)
}

// DownNodes returns the indices of down nodes, ascending.
func (c *Cluster) DownNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if n.down {
			out = append(out, i)
		}
	}
	return out
}
