package sched

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
)

// This file is the sharing planners' per-world state: what a pass derives
// from the running set and the cluster before it plans anything. It is kept
// between passes and moved forward with the world (see worldID): patched for
// the running jobs that entered or left, the planned ends that moved and the
// nodes the cluster reports changed, and rebuilt from nothing when the
// cluster, the share configuration or the co-run model is another, or the
// cluster no longer remembers every change since the state was derived.
//
// Running jobs are known by slot, not by their index in ctx.Running: a job
// keeps its slot while it stays in the running set, so a patch touches only
// what the entering and leaving jobs touch, where indices would shift under
// every job behind them.

// worldID is what the per-world state of a scratch is derived from: the
// cluster and its change counter, the running jobs with their planned ends,
// the share configuration and the co-run model.
type worldID struct {
	cl      *cluster.Cluster
	changes uint64
	share   ShareConfig
	inter   *interference.Model
	running []*RunningJob
	ids     []cluster.JobID // per running job
	ends    []runEnds       // per running job
}

type runEnds struct{ predicted, nominal des.Time }

func endsOf(r *RunningJob) runEnds { return runEnds{r.PredictedEnd, r.NominalEnd} }

// record makes w the identity of the world ctx describes.
func (w *worldID) record(ctx *Context) {
	w.cl, w.changes, w.share, w.inter = ctx.Cluster, ctx.Cluster.Changes(), ctx.Share, ctx.Inter
	w.running = append(w.running[:0], ctx.Running...)
	w.ids, w.ends = w.ids[:0], w.ends[:0]
	for _, r := range ctx.Running {
		w.ids = append(w.ids, r.Job.ID)
		w.ends = append(w.ends, endsOf(r))
	}
}

// moveWorld brings the per-world state to the world ctx describes: by a
// patch when it can, from nothing otherwise.
func (sc *scratch) moveWorld(ctx *Context) {
	sc.patchedFrom = sc.world
	sc.world++
	if sc.patchWorld(ctx) {
		sc.patched++
	} else {
		sc.patchedFrom = 0
		sc.rebuildWorld(ctx)
		sc.rebuilt++
	}
	sc.seen.record(ctx)
}

// slotRec is one slot of the running set: the job that holds it and what
// the per-world state keeps about it.
type slotRec struct {
	run   *RunningJob // nil for a free slot
	nodes []int       // the job's NodeIDs, copied when it took the slot
	hosts []int       // the host nodes it offers, in nodes order
	app   int32       // interned application
	pos   int32       // index in ctx.Running
	end   des.Time    // planning end
	rel   int         // nodes its end releases

	// The world epochs in which a patch last touched the slot's host
	// groups and its release.
	touchedIn, relIn uint64
}

// enter gives running job r slot s at position i of ctx.Running. A slot's
// buffers outlive the jobs that hold it.
func (sc *scratch) enter(ctx *Context, r *RunningJob, s int32, i int) {
	if int(s) == len(sc.bySlot) {
		if len(sc.bySlot) < cap(sc.bySlot) {
			sc.bySlot = sc.bySlot[:s+1]
		} else {
			sc.bySlot = append(sc.bySlot, slotRec{})
		}
	}
	rec := &sc.bySlot[s]
	rec.run = r
	if k := len(r.NodeIDs); cap(rec.nodes) < k {
		buf := make([]int, 2*k) // nodes, then room for as many hosts
		rec.nodes, rec.hosts = buf[:0:k], buf[k:k]
	}
	rec.nodes = append(rec.nodes[:0], r.NodeIDs...)
	rec.hosts = rec.hosts[:0]
	rec.app = sc.appOfJob(r.Job)
	rec.pos = int32(i)
	rec.end = predictedEnd(r, ctx.Share)
	rec.rel = 0
}

// rebuildWorld derives the per-world state from nothing: ctx.Running[i]
// takes slot i.
func (sc *scratch) rebuildWorld(ctx *Context) {
	c := ctx.Cluster
	n := c.Size()
	sc.bySlot, sc.freeSlots = sc.bySlot[:0], sc.freeSlots[:0]
	sc.runSlot = sc.runSlot[:0]
	for i, r := range ctx.Running {
		sc.enter(ctx, r, int32(i), i)
		sc.runSlot = append(sc.runSlot, int32(i))
	}
	if len(sc.res) < n {
		// One backing array with room for two residents a node; a node
		// with more grows its own.
		sc.res = make([][]int32, n)
		backing := make([]int32, 2*n)
		for ni := range sc.res {
			sc.res[ni] = backing[2*ni : 2*ni : 2*ni+2]
		}
	}
	for ni := range sc.res {
		sc.res[ni] = sc.res[ni][:0]
	}
	for i, r := range ctx.Running {
		for _, ni := range r.NodeIDs {
			sc.res[ni] = append(sc.res[ni], int32(i))
		}
	}

	sc.hostOf = resize(sc.hostOf, n)
	sc.canHost = resize(sc.canHost, n)
	sc.info = resize(sc.info, n)
	sc.relBy = resize(sc.relBy, n)
	sc.moved = resize(sc.moved, n)
	clear(sc.canHost)
	for ni := range sc.hostOf {
		sc.hostOf[ni] = notHost
		sc.relBy[ni] = -1
	}
	sc.hostable = 0
	sc.busyFree = c.AppendBusyFreeLayerNodes(sc.busyFree[:0])
	for _, ni := range sc.busyFree {
		if c.Node(ni).SharingDegree() < ctx.Share.MaxDegree {
			sc.canHost[ni] = true
			sc.hostable++
			sc.judgeHost(ctx, ni)
		}
	}
	for s := range sc.bySlot {
		sc.listHosts(int32(s))
	}

	// Slot i is ctx.Running[i], so the release list a pass with sharing off
	// derives is this one.
	sc.shareRel = appendReleases(ctx, sc.shareRel[:0], sc.relBy)
	for _, r := range sc.shareRel {
		sc.bySlot[r.slot].rel = int(r.nodes)
	}
}

// judgeHost sets hostOf and info of node ni, which can take a guest: its
// first resident offers it, if a running job occupies it at all.
func (sc *scratch) judgeHost(ctx *Context, ni int) {
	res := sc.res[ni]
	if len(res) == 0 {
		sc.hostOf[ni] = notHost // occupied by no job of ctx.Running
		return
	}
	c := ctx.Cluster
	sc.hostOf[ni] = res[0]
	layer, _ := freeLayerOn(c, ni) // a node that can host has one
	in := nodeInfo{memFree: c.Node(ni).MemFreeMB(), layer: layer, class: -1}
	if len(res) == 1 {
		in.class = sc.bySlot[res[0]].app
	}
	sc.info[ni] = in
}

// canTakeGuest reports whether node ni can take a guest: busy, schedulable,
// below MaxDegree, with a layer free.
func canTakeGuest(ctx *Context, ni int) bool {
	n := ctx.Cluster.Node(ni)
	if n.Idle() || !n.Available() || n.SharingDegree() >= ctx.Share.MaxDegree {
		return false
	}
	_, ok := freeLayerOn(ctx.Cluster, ni)
	return ok
}

// listHosts collects the host nodes slot s offers: those whose first
// resident it is, in its NodeIDs order.
func (sc *scratch) listHosts(s int32) {
	hosts := sc.bySlot[s].hosts[:0]
	for _, ni := range sc.bySlot[s].nodes {
		if sc.hostOf[ni] == s {
			hosts = append(hosts, ni)
		}
	}
	sc.bySlot[s].hosts = hosts
}

// releaser returns the slot whose end makes node ni a whole free node, -1
// when no resident ends at a positive time: appendReleases' rule — the
// first resident, in ctx.Running order, with the latest end — for one node.
func (sc *scratch) releaser(ni int) int32 {
	best, at := int32(-1), des.Time(0)
	for _, s := range sc.res[ni] {
		if e := sc.bySlot[s].end; e > at {
			best, at = s, e
		}
	}
	return best
}

// patchWorld moves the per-world state forward by what changed since it
// was recorded: the running jobs that entered or left, the planned ends that
// moved, and the nodes those jobs name or the cluster reports changed. It
// reports false, and touches nothing, when the cluster, the share
// configuration or the co-run model is another, or the cluster no longer
// remembers every change since.
//
// One merge pairs the two running sets. It pairs every job that stayed
// when both are in ascending job-ID order, as the engine's are; in any
// other order a job that stayed may be taken for one that left and one
// that entered, which the patch handles as such.
func (sc *scratch) patchWorld(ctx *Context) bool {
	w := &sc.seen
	if w.cl != ctx.Cluster || w.share != ctx.Share || w.inter != ctx.Inter {
		return false
	}
	changed, ok := ctx.Cluster.ChangedSince(w.changes, sc.movedNodes[:0])
	sc.movedNodes = changed
	if !ok {
		return false
	}
	// Pair the running sets: newSlot[i] is ctx.Running[i]'s slot, -1 for a
	// job that enters.
	sc.newSlot, sc.left, sc.endMoved = sc.newSlot[:0], sc.left[:0], sc.endMoved[:0]
	p := 0
	leave := func() {
		sc.left = append(sc.left, sc.runSlot[p])
		p++
	}
	for _, r := range ctx.Running {
		id := r.Job.ID
		for p < len(w.running) && w.ids[p] < id {
			leave()
		}
		if p < len(w.running) && w.running[p] == r {
			if w.ends[p] != endsOf(r) {
				sc.endMoved = append(sc.endMoved, sc.runSlot[p])
			}
			sc.newSlot = append(sc.newSlot, sc.runSlot[p])
			p++
			continue
		}
		if p < len(w.running) && w.ids[p] == id {
			leave() // another job under the same ID
		}
		sc.newSlot = append(sc.newSlot, -1)
	}
	for p < len(w.running) {
		leave()
	}

	now := sc.world
	// Mark the nodes that moved — those the cluster reports, deduplicated
	// in place, then those the entering and leaving jobs name — and every
	// slot whose host groups may change.
	sc.movedNodes = sc.movedNodes[:0]
	markNode := func(ni int) {
		if sc.moved[ni] != now {
			sc.moved[ni] = now
			sc.movedNodes = append(sc.movedNodes, ni)
		}
	}
	for _, ni := range changed {
		markNode(ni)
	}
	sc.touched = sc.touched[:0]
	touch := func(s int32) {
		if sc.bySlot[s].touchedIn != now {
			sc.bySlot[s].touchedIn = now
			sc.touched = append(sc.touched, s)
		}
	}
	for _, s := range sc.left {
		for _, ni := range sc.bySlot[s].nodes {
			sc.res[ni] = deleteSlot(sc.res[ni], s)
			markNode(ni)
		}
		sc.bySlot[s].run = nil
		touch(s)
	}
	// Slots for the entering jobs come from those freed before this patch,
	// so no slot both leaves and enters here: a node's releaser may still
	// name a slot that left.
	sc.runSlot = sc.runSlot[:0]
	for i, s := range sc.newSlot {
		r := ctx.Running[i]
		if s < 0 {
			if k := len(sc.freeSlots); k > 0 {
				s = sc.freeSlots[k-1]
				sc.freeSlots = sc.freeSlots[:k-1]
			} else {
				s = int32(len(sc.bySlot))
			}
			sc.enter(ctx, r, s, i)
			touch(s)
		}
		sc.runSlot = append(sc.runSlot, s)
		sc.bySlot[s].pos = int32(i)
	}
	for i, s := range sc.newSlot {
		if s >= 0 {
			continue
		}
		s = sc.runSlot[i]
		for _, ni := range sc.bySlot[s].nodes {
			sc.res[ni] = sc.insertSlot(sc.res[ni], s)
			markNode(ni)
		}
	}

	// Moved nodes: whether they can host, their first resident, their info.
	for _, ni := range sc.movedNodes {
		can := canTakeGuest(ctx, ni)
		if can != sc.canHost[ni] {
			sc.canHost[ni] = can
			if can {
				sc.hostable++
			} else {
				sc.hostable--
			}
		}
		sc.hostOf[ni] = notHost
		if can {
			sc.judgeHost(ctx, ni)
		}
		for _, s := range sc.res[ni] {
			touch(s)
		}
	}
	for _, s := range sc.touched {
		if sc.bySlot[s].run != nil {
			sc.listHosts(s)
		}
	}

	// Releases: re-judge every node a job that entered, left or moved its
	// end names, and re-place the release of every slot whose count or end
	// changed.
	sc.relDirty = sc.relDirty[:0]
	dirty := func(s int32) {
		if sc.bySlot[s].relIn != now {
			sc.bySlot[s].relIn = now
			sc.relDirty = append(sc.relDirty, s)
		}
	}
	rejudge := func(ni int) {
		if old, rb := sc.relBy[ni], sc.releaser(ni); old != rb {
			if old >= 0 {
				sc.bySlot[old].rel--
				dirty(old)
			}
			if rb >= 0 {
				sc.bySlot[rb].rel++
				dirty(rb)
			}
			sc.relBy[ni] = rb
		}
	}
	for _, s := range sc.endMoved {
		if end := predictedEnd(sc.bySlot[s].run, ctx.Share); end != sc.bySlot[s].end {
			sc.bySlot[s].end = end
			dirty(s)
			for _, ni := range sc.bySlot[s].nodes {
				rejudge(ni)
			}
		}
	}
	for _, ni := range sc.movedNodes {
		rejudge(ni)
	}
	for _, s := range sc.left {
		dirty(s)
	}
	if len(sc.relDirty) > 0 {
		rel := sc.shareRel[:0]
		for _, r := range sc.shareRel {
			if sc.bySlot[r.slot].relIn != now {
				rel = append(rel, r)
			}
		}
		for _, s := range sc.relDirty {
			if k := sc.bySlot[s].rel; k > 0 && sc.bySlot[s].run != nil {
				r := nodeRelease{sc.bySlot[s].end, int32(k), s}
				at, _ := slices.BinarySearchFunc(rel, r, byTime)
				rel = slices.Insert(rel, at, r)
			}
		}
		sc.shareRel = rel
	}

	sc.freeSlots = append(sc.freeSlots, sc.left...)
	return true
}

// insertSlot inserts slot s into the resident list res at its place in
// ctx.Running order.
func (sc *scratch) insertSlot(res []int32, s int32) []int32 {
	at := len(res)
	for at > 0 && sc.bySlot[res[at-1]].pos > sc.bySlot[s].pos {
		at--
	}
	return slices.Insert(res, at, s)
}

// deleteSlot removes slot s from the resident list res.
func deleteSlot(res []int32, s int32) []int32 {
	if at := slices.Index(res, s); at >= 0 {
		return slices.Delete(res, at, at+1)
	}
	return res
}

// byTime orders releases by time. Equal times merge in the profile, so
// their order does not matter.
func byTime(a, b nodeRelease) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	}
	return 0
}
