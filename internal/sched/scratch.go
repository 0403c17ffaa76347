package sched

import (
	"encoding/binary"
	"math"
	"slices"

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
// A scheduling pass never allocates its world again. What a pass derives
// from the Context lives in this memory, cleared or truncated, never
// reallocated; the only memory a pass hands out is the decisions it returns.
//
// Three kinds of state live here, by how long they stay valid:
//
//   - Per pass: the claimed and barred marks, the idle list, the failure
//     bounds, the reservation starts and the postponed releases. begin
//     resets them.
//   - Per world: the sharing planners' node → residents index, the host
//     nodes with their nodeInfo, each running job's application, host nodes
//     and release, the sorted release list, and every application's host
//     groups. They are a function of the world (see worldID) — the cluster's
//     nodes, the running jobs and their planned ends, the share
//     configuration and the co-run model — and beginShare moves them to the
//     present one at every pass with sharing on (a pass with sharing off
//     leaves them be): patched where running jobs entered or left,
//     planned ends moved or the cluster reports nodes changed; rebuilt when
//     the cluster, the configuration or the model is another, or the
//     cluster no longer remembers every change since (see world.go). A
//     pass's claims and bars filter the host groups (see hostGroupsFor).
//   - For the scratch's life: the interned applications, each job's
//     application, and the pairing memo built on them. Pairing quality is a
//     pure function of the two applications (name and stress vector), the
//     interference model and the share configuration, so begin keeps the
//     memo while those stay the same and drops it when they differ.
//
// Schedule stays a pure decision procedure: the scratch holds no decision of
// an earlier pass, only what the world identity determines and memoized
// arithmetic, so two Contexts describing the same state plan the same starts
// whatever their scratches did before. That rests on one assumption the
// world identity does not check: a running job's application and NodeIDs
// are not edited in place.
type scratch struct {
	// Lifetime tables.
	apps      appTable
	byJob     []int32                  // [job ID]: interned application + 1, 0 for none yet
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
	pass    uint64 // counts passes
	claimed []bool // per node: taken by this pass's decisions
	claims  int    // how many nodes are claimed
	barred  []bool // per node: ruled out as a host by one placeGuarded call
	anyBar  bool   // some node is barred
	idle    []int  // idle schedulable nodes, ascending

	endOverride []des.Time // per slot: release postponed by this pass
	minFail     []int      // per application: smallest node count that failed this pass
	shadows     []des.Time

	// Per world: the sharing planners' view of the running set, moved with
	// the world by beginShare (see world.go). Every running job holds a
	// slot: ctx.Running[i] is bySlot[runSlot[i]].run. Node ni hosts the
	// slots res[ni], in ctx.Running order. A node that can take a guest —
	// busy, schedulable, below MaxDegree, with a layer free — is offered
	// through its first resident hostOf[ni] (notHost for the rest), judged by
	// info[ni], and listed in that slot's hosts. Node ni becomes a whole free
	// node when slot relBy[ni] ends, and shareRel holds each slot's releases
	// sorted by time.
	world       uint64  // world epoch: moves whenever the per-world state does
	patchedFrom uint64  // the epoch the world was patched from, 0 after a rebuild
	seen        worldID // the identity the per-world state was derived from
	hostable    int     // nodes that can take a guest, listed by a running job or not

	bySlot    []slotRec
	runSlot   []int32 // per ctx.Running index
	freeSlots []int32
	busyFree  []int // busy nodes with a free layer, ascending, as a rebuild found them

	res      [][]int32
	hostOf   []int32
	canHost  []bool
	info     []nodeInfo
	relBy    []int32
	shareRel []nodeRelease

	// What a patch works with: the pairing of the running sets, the slots
	// that left and whose end moved, and the nodes and slots it touched,
	// stamped with the world epoch that touched them last.
	newSlot    []int32
	left       []int32
	endMoved   []int32
	movedNodes []int
	moved      []uint64 // per node
	touched    []int32  // slots whose host groups the patch changed
	relDirty   []int32  // slots whose release the patch moves

	// How often beginShare patched and rebuilt the per-world state.
	patched, rebuilt int

	groups    []groupMemo // per application: its host groups, see hostGroupsFor
	barGroups []hostGroup // the host groups of an attempt under bars
	barCands  []shareCandidate
	tmpCands  []shareCandidate // where a patch compacts a memo's candidates

	idleCand  []int // idleCandidates' result before locality ordering
	compactor topology.Compactor
	slots     []slot
	whole     []int // the nodes of a start that takes them whole

	profile   Profile
	releaseAt []des.Time    // per node: when its last resident leaves
	releases  []nodeRelease // a pass's release list with sharing off, by end

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

// nodeInfo is what a pass needs to know about a host node to judge it for a
// guest. It depends on the cluster and the running set alone, so it is
// derived once per node per world.
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
	sc.pass++
	sc.claimed = resize(sc.claimed, n)
	clear(sc.claimed)
	sc.claims = 0
	sc.barred = resize(sc.barred, n)
	clear(sc.barred)
	sc.anyBar = false
	sc.idle = ctx.Cluster.AppendIdleNodes(sc.idle[:0])
	if sc.memoInter != ctx.Inter || sc.memoShare != ctx.Share {
		sc.memoInter, sc.memoShare = ctx.Inter, ctx.Share
		sc.dropMemo()
	}
	return sc
}

// beginShare additionally readies what only the sharing skeletons use and,
// with sharing on, moves the per-world state to ctx's world. With sharing
// off no node can take a guest, so the world is left where it is: a later
// pass with sharing on patches it across the passes that skipped it.
func (ctx *Context) beginShare() *scratch {
	sc := ctx.begin()
	sc.minFail = sc.minFail[:0]
	sc.shadows = sc.shadows[:0]
	if ctx.Share.Enabled {
		sc.moveWorld(ctx)
	}
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

// claim, bar and unbar are the pass's only writers of claimed and barred.

// claim takes node ni for a decision of this pass.
func (sc *scratch) claim(ni int) {
	sc.claimed[ni] = true
	sc.claims++
}

// bar rules node ni out as a host for the placement being built.
func (sc *scratch) bar(ni int) {
	sc.barred[ni] = true
	sc.anyBar = true
}

// unbar lifts every bar.
func (sc *scratch) unbar() {
	if sc.anyBar {
		clear(sc.barred)
		sc.anyBar = false
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

// maxJobCache bounds the job IDs appOfJob remembers; larger ones are
// interned on every call.
const maxJobCache = 1 << 20

// appOfJob returns the interned application of job j. The answer is cached
// by job ID and checked against the entry's name, stress vector and memory —
// the triple intern keys on — so it is exact whatever job reuses an ID.
func (sc *scratch) appOfJob(j *job.Job) int32 {
	id := int(j.ID)
	if id < 0 || id >= maxJobCache {
		return sc.appOf(&j.App)
	}
	if id < len(sc.byJob) {
		if a := sc.byJob[id] - 1; a >= 0 {
			if e := &sc.apps.apps[a]; e.name == j.App.Name && e.stress == j.App.Stress && e.memMB == j.App.MemPerNodeMB {
				return a
			}
		}
	} else {
		old := len(sc.byJob)
		sc.byJob = slices.Grow(sc.byJob, id+1-old)[:id+1]
		clear(sc.byJob[old:])
	}
	a := sc.appOf(&j.App)
	sc.byJob[id] = a + 1
	return a
}

// notHost marks, in scratch.hostOf, a node no guest can take.
const notHost = -1

// residents returns the slots of the jobs on node ni, in ctx.Running order.
func (ctx *Context) residents(ni int) []int32 { return ctx.sc.res[ni] }

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
	for _, s := range residents {
		key = binary.LittleEndian.AppendUint32(key, uint32(sc.bySlot[s].app))
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
	for _, rs := range residents {
		r := sc.bySlot[rs].run
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

// hostRateWith returns the interference-model progress rate of the running
// host in slot s when guest j (application guest) lands beside it.
func (ctx *Context) hostRateWith(s int32, j *job.Job, guest int32) float64 {
	sc := ctx.sc
	cell := &sc.hostRate[int(sc.bySlot[s].app)*sc.stride+int(guest)]
	if *cell == 0 {
		r := sc.bySlot[s].run
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
