package sched

import (
	"encoding/binary"
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// scratch is the planner's working memory. One scratch hangs off a Context
// and lives as long as it does: the simulation engine keeps one Context — and
// so one scratch — for its lifetime, and a caller that builds a Context by
// hand gets its scratch on the first Schedule and keeps it for the next.
//
// A scheduling pass never allocates its world again. Everything a pass
// derives from the Context — the node → residents index, the idle list, the
// claimed-node marks, host groups, candidate slots, the capacity profile —
// is rebuilt in this memory by begin, cleared or truncated, never
// reallocated. Within a pass, host groups are memoised per application until
// the next claim, bar or unbar (see hostGroupsFor). The only memory a pass
// hands out is the decisions it returns.
//
// Two tables outlive a pass: the interned applications and the pairing memo
// built on them. Pairing quality is a pure function of the two applications
// (name and stress vector), the interference model and the share
// configuration — nothing a pass changes — so begin keeps the memo while
// those stay the same and drops it when they differ.
//
// Schedule stays a pure decision procedure: the scratch holds no decision of
// an earlier pass, only capacity and memoized arithmetic, so two Contexts
// describing the same state plan the same starts whatever their scratches
// did before.
type scratch struct {
	// Lifetime tables.
	apps      appTable
	stride    int                      // row length of pair and hostRate
	pair      []compatProfile          // [guest*stride+resident], done marks a filled cell
	hostRate  []float64                // [host*stride+guest], 0 marks an empty cell
	multi     map[string]compatProfile // pairings against several residents (MaxDegree > 2)
	memoInter *interference.Model
	memoShare ShareConfig

	// scoped is the Context the sharing policies plan under: the caller's
	// with Share replaced by the policy's own configuration.
	scoped Context

	// Per pass, set by begin.
	claimed  []bool // per node: taken by this pass's decisions
	barred   []bool // per node: ruled out as a host by one placeGuarded call
	offered  []bool // per node: buildResidents has judged it as a host
	idle     []int  // idle schedulable nodes, ascending
	busyFree []int  // busy nodes with a free layer, ascending

	// The sharing planners' view of ctx.Running, built by beginShare. Node
	// ni hosts ctx.Running[resRun[k]] for resOff[ni] ≤ k < resOff[ni+1], in
	// ctx.Running order; info[ni] judges it as a co-allocation host; and
	// ctx.Running[i] offers the guest nodes hostNodes[hostOff[i]:hostOff[i+1]].
	resOff    []int32
	resRun    []int32
	runApp    []int32 // interned application of ctx.Running[i]
	info      []nodeInfo
	hostOff   []int32
	hostNodes []int

	endOverride []des.Time // per ctx.Running index: release postponed by this pass
	minFail     []int      // per application: smallest node count that failed this pass

	idleCand  []int // idleCandidates' result before locality ordering
	compactor topology.Compactor

	groups  []groupMemo // per application: its host groups, see hostGroupsFor
	gen     uint64      // bumped by every change to claimed or barred
	anyBar  bool        // some node is barred
	slots   []slot
	shadows []des.Time

	profile   Profile
	releaseAt []des.Time    // per node: when its last resident leaves
	releases  []nodeRelease // per running job: the nodes it releases, by end

	loads  []interference.Load
	keyBuf []byte
}

// appTable interns applications to small integers so the pairing memo can be
// a dense table instead of a map keyed by two strings. Two jobs share an
// entry only when name, stress vector and memory footprint all agree, so a
// memo cell can never answer for a different application that reuses a name.
type appTable struct {
	byName map[string]int32 // first entry of each name
	apps   []appEntry
}

type appEntry struct {
	name   string
	stress app.StressVector
	memMB  int
	next   int32 // next entry with the same name, -1 at the end
}

func (t *appTable) intern(a *app.Model) int32 {
	id, ok := t.byName[a.Name]
	if !ok {
		id = -1
	}
	last := int32(-1)
	for ; id >= 0; id = t.apps[id].next {
		if e := &t.apps[id]; e.stress == a.Stress && e.memMB == a.MemPerNodeMB {
			return id
		}
		last = id
	}
	id = int32(len(t.apps))
	t.apps = append(t.apps, appEntry{name: a.Name, stress: a.Stress, memMB: a.MemPerNodeMB, next: -1})
	if last >= 0 {
		t.apps[last].next = id
	} else {
		if t.byName == nil {
			t.byName = make(map[string]int32)
		}
		t.byName[a.Name] = id
	}
	return id
}

// nodeInfo is what a pass needs to know about a node some running job
// occupies to judge it as a co-allocation host. The cluster does not change
// during a pass, so it is derived once per node per pass.
type nodeInfo struct {
	memFree int           // MemFreeMB
	layer   cluster.Layer // the free layer a guest would take
	class   int32         // application of the single resident, or -1 for several
}

// scratch returns the Context's scratch, creating it on first use.
func (ctx *Context) scratch() *scratch {
	if ctx.sc == nil {
		ctx.sc = &scratch{}
	}
	return ctx.sc
}

// withShare returns the Context a sharing policy plans under: ctx with its
// Share replaced by the policy's configuration, on ctx's scratch.
func (ctx *Context) withShare(cfg ShareConfig) *Context {
	sc := ctx.scratch()
	sc.scoped = *ctx
	sc.scoped.Share = cfg
	return &sc.scoped
}

// begin readies the scratch for one pass over ctx.
func (ctx *Context) begin() *scratch {
	sc := ctx.scratch()
	n := ctx.Cluster.Size()
	sc.claimed = resize(sc.claimed, n)
	clear(sc.claimed)
	sc.barred = resize(sc.barred, n)
	clear(sc.barred)
	sc.anyBar = false
	sc.gen++
	sc.idle = ctx.Cluster.AppendIdleNodes(sc.idle[:0])
	if sc.memoInter != ctx.Inter || sc.memoShare != ctx.Share {
		sc.memoInter, sc.memoShare = ctx.Inter, ctx.Share
		sc.dropMemo()
	}
	return sc
}

// beginShare additionally readies what only the sharing planners use.
func (ctx *Context) beginShare() *scratch {
	sc := ctx.begin()
	sc.busyFree = ctx.Cluster.AppendBusyFreeLayerNodes(sc.busyFree[:0])
	sc.minFail = sc.minFail[:0]
	sc.shadows = sc.shadows[:0]
	sc.buildResidents(ctx)
	return sc
}

func (sc *scratch) dropMemo() {
	clear(sc.pair)
	clear(sc.hostRate)
	clear(sc.multi)
}

// excluded reports whether node ni is out of bounds for the placement being
// built: taken earlier in the pass or ruled out as a host.
func (sc *scratch) excluded(ni int) bool { return sc.claimed[ni] || sc.barred[ni] }

// claim, bar and unbar are the pass's only writers of claimed and barred:
// each change moves the generation on, which voids the memoised host groups.

// claim takes node ni for a decision of this pass.
func (sc *scratch) claim(ni int) {
	sc.claimed[ni] = true
	sc.gen++
}

// bar rules node ni out as a host for the placement being built.
func (sc *scratch) bar(ni int) {
	sc.barred[ni] = true
	sc.anyBar = true
	sc.gen++
}

// unbar lifts every bar.
func (sc *scratch) unbar() {
	if sc.anyBar {
		clear(sc.barred)
		sc.anyBar = false
		sc.gen++
	}
}

// appOf interns an application and makes room for it in the dense tables.
func (sc *scratch) appOf(a *app.Model) int32 {
	id := sc.apps.intern(a)
	if int(id) >= sc.stride {
		// Re-lay the tables with longer rows. Cells are cheap to refill, so
		// the memo restarts empty instead of being copied over.
		sc.stride = max(8, 2*sc.stride)
		sc.pair = make([]compatProfile, sc.stride*sc.stride)
		sc.hostRate = make([]float64, sc.stride*sc.stride)
	}
	return id
}

// buildResidents fills the node → residents index, each running job's
// interned application, every occupied node's nodeInfo, and each running
// job's host nodes.
func (sc *scratch) buildResidents(ctx *Context) {
	n := ctx.Cluster.Size()
	sc.resOff = resize(sc.resOff, n+1)
	clear(sc.resOff)
	sc.runApp = sc.runApp[:0]
	total := 0
	for _, r := range ctx.Running {
		sc.runApp = append(sc.runApp, sc.appOf(&r.Job.App))
		for _, ni := range r.NodeIDs {
			sc.resOff[ni+1]++
		}
		total += len(r.NodeIDs)
	}
	for ni := 0; ni < n; ni++ {
		sc.resOff[ni+1] += sc.resOff[ni]
	}
	// resOff[ni+1] is now node ni's end. Fill each node back to front while
	// walking the running set backwards, so a node lists its residents in
	// ctx.Running order; that leaves resOff[ni+1] at node ni's start.
	sc.resRun = resize(sc.resRun, total)
	for i := len(ctx.Running) - 1; i >= 0; i-- {
		for _, ni := range ctx.Running[i].NodeIDs {
			sc.resOff[ni+1]--
			sc.resRun[sc.resOff[ni+1]] = int32(i)
		}
	}
	copy(sc.resOff, sc.resOff[1:])
	sc.resOff[n] = int32(total)

	// A node is offered to guests once, through its first resident in
	// ctx.Running order: whether it can host does not depend on which of its
	// residents asks.
	sc.info = resize(sc.info, n)
	sc.hostOff = resize(sc.hostOff, len(ctx.Running)+1)
	sc.hostNodes = sc.hostNodes[:0]
	sc.offered = resize(sc.offered, n)
	clear(sc.offered)
	for i, r := range ctx.Running {
		sc.hostOff[i] = int32(len(sc.hostNodes))
		for _, ni := range r.NodeIDs {
			if sc.offered[ni] {
				continue
			}
			sc.offered[ni] = true
			if in, ok := ctx.hostInfo(ni); ok {
				sc.info[ni] = in
				sc.hostNodes = append(sc.hostNodes, ni)
			}
		}
	}
	sc.hostOff[len(ctx.Running)] = int32(len(sc.hostNodes))
}

// residents returns the indices into ctx.Running of the jobs on node ni, in
// ctx.Running order.
func (ctx *Context) residents(ni int) []int32 {
	sc := ctx.sc
	return sc.resRun[sc.resOff[ni]:sc.resOff[ni+1]]
}

// hostInfo judges node ni, which some running job occupies, as a
// co-allocation host for this pass: it must be schedulable, below MaxDegree,
// and have a layer free.
func (ctx *Context) hostInfo(ni int) (nodeInfo, bool) {
	n := ctx.Cluster.Node(ni)
	if n.Idle() || !n.Available() || n.SharingDegree() >= ctx.Share.MaxDegree {
		return nodeInfo{}, false
	}
	layer, ok := freeLayerOn(ctx.Cluster, ni)
	if !ok {
		return nodeInfo{}, false
	}
	in := nodeInfo{memFree: n.MemFreeMB(), layer: layer, class: -1}
	if residents := ctx.residents(ni); len(residents) == 1 {
		in.class = ctx.sc.runApp[residents[0]]
	}
	return in, true
}

// compatProfile is one memoized pairing evaluation: whether the pairing
// passes the configured gates, its worst complementarity score, and the
// guest's estimated progress rate.
type compatProfile struct {
	done  bool // the cell holds an evaluation
	ok    bool
	score float64
	rate  float64
}

// compatFor returns the pairing evaluation of guest job j (application
// guest) against the residents of node ni, from the memo when it is there.
func (ctx *Context) compatFor(j *job.Job, guest int32, ni int, in *nodeInfo) compatProfile {
	sc := ctx.sc
	if in.class >= 0 {
		cell := &sc.pair[int(guest)*sc.stride+int(in.class)]
		if !cell.done {
			*cell = ctx.evalCompat(j, ctx.residents(ni))
		}
		return *cell
	}
	residents := ctx.residents(ni)
	key := binary.LittleEndian.AppendUint32(sc.keyBuf[:0], uint32(guest))
	for _, ri := range residents {
		key = binary.LittleEndian.AppendUint32(key, uint32(sc.runApp[ri]))
	}
	sc.keyBuf = key
	if p, ok := sc.multi[string(key)]; ok {
		return p
	}
	p := ctx.evalCompat(j, residents)
	if sc.multi == nil {
		sc.multi = make(map[string]compatProfile)
	}
	sc.multi[string(key)] = p
	return p
}

// evalCompat evaluates guest j against a resident set: the pairing gate,
// the worst complementarity, and the guest's rate under the co-run model.
func (ctx *Context) evalCompat(j *job.Job, residents []int32) compatProfile {
	sc := ctx.sc
	cfg := ctx.Share
	score := 1.0
	loads := append(sc.loads[:0], interference.Load{App: j.App.Name, Stress: j.App.Stress})
	for _, ri := range residents {
		r := ctx.Running[ri]
		if s := app.Complementarity(j.App.Stress, r.Job.App.Stress); s < score {
			score = s
		}
		loads = append(loads, interference.Load{App: r.Job.App.Name, Stress: r.Job.App.Stress})
	}
	sc.loads = loads
	p := compatProfile{done: true, score: score}
	if score >= cfg.MinComplementarity {
		rates := ctx.Inter.NamedRates(loads)
		p.ok = true
		p.rate = rates[0]
		if cfg.MinEstimatedRate > 0 {
			for _, r := range rates {
				if r < cfg.MinEstimatedRate {
					p.ok = false
					break
				}
			}
		}
	}
	return p
}

// hostRateWith returns the interference-model progress rate of running host
// ctx.Running[ri] when guest j (application guest) lands beside it.
func (ctx *Context) hostRateWith(ri int32, j *job.Job, guest int32) float64 {
	sc := ctx.sc
	cell := &sc.hostRate[int(sc.runApp[ri])*sc.stride+int(guest)]
	if *cell == 0 {
		r := ctx.Running[ri]
		sc.loads = append(sc.loads[:0],
			interference.Load{App: r.Job.App.Name, Stress: r.Job.App.Stress},
			interference.Load{App: j.App.Name, Stress: j.App.Stress})
		*cell = ctx.Inter.NamedRates(sc.loads)[0]
	}
	return *cell
}

// knownToFail and recordFail prune repeated placement attempts within one
// pass. Capacity only shrinks as a pass claims nodes, so once a placement for
// an application failed at n nodes, every later attempt for the same
// application with ≥ n nodes must fail too.
func (sc *scratch) knownToFail(j *job.Job, guest int32) bool {
	return int(guest) < len(sc.minFail) && j.Nodes >= sc.minFail[guest]
}

func (sc *scratch) recordFail(j *job.Job, guest int32) {
	for len(sc.minFail) <= int(guest) {
		sc.minFail = append(sc.minFail, math.MaxInt)
	}
	if j.Nodes < sc.minFail[guest] {
		sc.minFail[guest] = j.Nodes
	}
}

// idleCandidates returns the idle schedulable nodes this pass has not taken,
// in locality-compact order when a topology is configured. The result is
// valid until the next call.
func idleCandidates(ctx *Context) []int {
	sc := ctx.sc
	out := sc.idleCand[:0]
	for _, ni := range sc.idle {
		if !sc.excluded(ni) {
			out = append(out, ni)
		}
	}
	sc.idleCand = out
	if ctx.Topo != nil {
		out = sc.compactor.Order(*ctx.Topo, out)
	}
	return out
}

// resize returns s with length n, reusing its memory when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
