package sched

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// ShareFirstFit extends first fit with co-allocation: a queued job may be
// placed onto the free hardware-thread layer of nodes already running a
// compatible job, oversubscribing cores through SMT. Pairing-aware candidate
// ranking (complementary stress vectors first) is what turns oversubscription
// into an efficiency gain instead of uniform slowdown.
type ShareFirstFit struct {
	// Config tunes co-allocation. The zero config is FirstFit.
	Config ShareConfig
}

// Name implements Policy.
func (ShareFirstFit) Name() string { return "sharefirstfit" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareFirstFit) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareFirstFit) Schedule(ctx *Context) []Decision {
	ctx = ctx.withShare(p.Config)
	sc := ctx.beginShare()
	var out []Decision
	slots := slotBound(ctx)
	for _, j := range ctx.Queue {
		if slots <= 0 {
			break // machine exhausted; nothing later can start either
		}
		if !fitsMachine(ctx, j) || j.Nodes > slots {
			continue // cheap bounds: cannot possibly fit this pass
		}
		guest := sc.appOfJob(j)
		if sc.knownToFail(j, guest) {
			continue
		}
		plan, ok := placeShared(ctx, j, guest)
		if !ok {
			sc.recordFail(j, guest)
			continue // first fit: skip and try the next job
		}
		dec := plan.decision(ctx, j)
		for _, s := range sc.slots {
			sc.claim(s.node)
		}
		slots -= len(dec.Placement.Nodes)
		out = append(out, dec)
	}
	return out
}

// slotBound returns an upper bound on the node slots a sharing pass can
// still hand out: idle nodes plus busy nodes with a free layer within the
// sharing degree — none with sharing off. It exists so deep queues cost an
// integer compare per hopeless job instead of a full candidate scan. Both
// terms come from the cluster's free-capacity index, and the host count is
// kept with the per-world state, so the bound costs nothing per pass.
func slotBound(ctx *Context) int {
	if !ctx.Share.Enabled {
		return len(ctx.sc.idle) // the pass did not move the world
	}
	return len(ctx.sc.idle) + ctx.sc.hostable
}

// ShareBackfill is co-allocation-aware EASY backfill. The queue head's
// reservation is planned on whole-node capacity exactly as in EASY; backfill
// candidates may additionally be co-allocated onto compatible running jobs.
// Because a co-runner slows its host job — postponing the node's release —
// the policy re-verifies the head's reservation against interference-inflated
// completion estimates before committing any co-allocation
// (Config.InflationAccounting; disabling it is the ablation that breaks the
// EASY no-delay guarantee).
type ShareBackfill struct {
	// Config tunes co-allocation. The zero config is EASY.
	Config ShareConfig
}

// Name implements Policy.
func (ShareBackfill) Name() string { return "sharebackfill" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareBackfill) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareBackfill) Schedule(ctx *Context) []Decision {
	return scheduleShare(ctx.withShare(p.Config), 1)
}

// ShareConservative is co-allocation-aware conservative backfill: every
// blocked job gets a reservation, and a co-allocation is admitted only if
// the interference-inflated release postponements it causes delay none of
// them. It trades ShareBackfill's aggressiveness for bounded queue-jumping,
// exactly as Conservative does for EASY.
type ShareConservative struct {
	// Config tunes co-allocation. The zero config is Conservative.
	Config ShareConfig
}

// Name implements Policy.
func (ShareConservative) Name() string { return "shareconservative" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareConservative) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareConservative) Schedule(ctx *Context) []Decision {
	return scheduleShare(ctx.withShare(p.Config), len(ctx.Queue))
}

// scheduleShare is the backfill skeleton: reservations for the first
// maxReservations blocked jobs on whole-node capacity, immediate starts
// (exclusive or co-allocated) for everything that provably delays no
// reservation. Every start takes one of slotBound's slots per node and at
// most its slots beyond the idle nodes from running hosts, so the walk ends
// where no job at or behind it can start now, and a job the witness has
// passed is only reserved, never placed (see nowStartable).
func scheduleShare(ctx *Context, maxReservations int) []Decision {
	sc := ctx.beginShare()
	slots := slotBound(ctx)
	if slots <= 0 {
		return nil
	}
	var out []Decision
	// A start takes at most the slots beyond the idle nodes from running
	// hosts; the rest of its nodes come out of the profile.
	shared := slots - len(sc.idle)
	// endOverride records release postponements caused by co-allocations
	// committed in this pass; none yet.
	sc.endOverride = resize(sc.endOverride, len(sc.bySlot))
	for i := range sc.endOverride {
		sc.endOverride[i] = noOverride
	}
	profile := sc.openProfile(ctx.Now, sc.releaseList(ctx))

	// sc.shadows holds the reservation start times, in queue order.
	w := 0 // the now-start witness
	for i, j := range ctx.Queue {
		if w = nowStartable(ctx, profile, max(w, i), slots, shared); w == len(ctx.Queue) {
			break // nothing from here on can start; reservations alone decide nothing
		}
		if !fitsMachine(ctx, j) {
			continue
		}
		if w > i {
			// Fails the now-start test, so it cannot start this pass and is
			// not placed; it may still deserve a reservation.
			if len(sc.shadows) < maxReservations {
				sc.reserve(j)
			}
			continue
		}
		blockedBefore := len(sc.shadows) > 0
		guest := sc.appOfJob(j)
		if blockedBefore && sc.knownToFail(j, guest) {
			// Cannot start this pass; it may still deserve a reservation.
			if len(sc.shadows) < maxReservations {
				sc.reserve(j)
			}
			continue
		}

		if plan, ok := placeGuarded(ctx, j, guest); ok {
			// Idle nodes consumed now must not break any reservation: the
			// job (or its placement's idle part) must fit in the reserved
			// profile for its whole walltime starting immediately.
			if plan.idle > 0 {
				start, fits := profile.FindStart(plan.idle, j.ReqWalltime)
				if !fits || start > ctx.Now {
					if !blockedBefore || len(sc.shadows) < maxReservations {
						sc.reserve(j)
					}
					continue
				}
				profile.Reserve(ctx.Now, j.ReqWalltime, plan.idle)
			}
			out = append(out, plan.decision(ctx, j))
			commitShare(ctx, j, guest, plan)
			slots -= j.Nodes
			continue
		}

		// Blocked: plan a reservation while the budget allows.
		if len(sc.shadows) < maxReservations {
			sc.reserve(j)
			continue
		}
		sc.recordFail(j, guest)
	}
	return out
}

// releaseList returns the pass's releases, sorted by time: with sharing on
// the list kept with the world, with it off one derived afresh — no node can
// take a guest then, and a carried world does not pay for the exclusive
// planners (see DESIGN §10).
func (sc *scratch) releaseList(ctx *Context) []nodeRelease {
	if ctx.Share.Enabled {
		return sc.shareRel
	}
	sc.releases = appendReleases(ctx, sc.releases[:0], nil)
	return sc.releases
}

// nowStartable returns the first queue position at or after from whose job
// could still start now, len(ctx.Queue) when there is none: the job fits the
// machine, asks for at most avail nodes — what the pass can still hand out —
// and the profile keeps all but shared of its nodes free from now for its
// whole walltime, shared being the most nodes a start can take beside
// running jobs instead of from the profile.
//
// It is the backfill skeleton's cut-off, and it is exact. Within a pass
// capacity only shrinks — Reserve subtracts, claims and slots only go down —
// so a job that fails the test once fails it for the rest of the pass, and
// the witness only moves forward: O(queue) tests per pass. Every job a pass
// starts passes it, so once no job at or behind a position does, the walk
// can stop there: a pass returns nothing but starts, and its profile, with
// every reservation in it, is rebuilt from nothing by the next one.
func nowStartable(ctx *Context, profile *Profile, from, avail, shared int) int {
	for ; from < len(ctx.Queue); from++ {
		j := ctx.Queue[from]
		if j.Nodes <= avail && fitsMachine(ctx, j) && profile.fitsNow(j.Nodes-shared, j.ReqWalltime) {
			break
		}
	}
	return from
}

// reserve plans a reservation for j at the earliest start the pass's
// profile allows and records its start among the shadows.
func (sc *scratch) reserve(j *job.Job) {
	if start, ok := sc.profile.FindStart(j.Nodes, j.ReqWalltime); ok {
		sc.shadows = append(sc.shadows, start)
		sc.profile.Reserve(start, j.ReqWalltime, j.Nodes)
	}
}

// placeGuarded attempts a sharing-aware placement for j. With inflation
// accounting on, a co-allocation is rejected if slowing the host jobs would
// postpone a node release past any reservation start the pass has planned
// (scratch.shadows). Rejected host nodes are barred and the placement is
// retried, so a guest can still land on hosts with walltime slack.
func placeGuarded(ctx *Context, j *job.Job, guest int32) (sharePlan, bool) {
	sc := ctx.sc
	shadows := sc.shadows
	sc.unbar()
	for attempt := 0; attempt <= ctx.Cluster.Size(); attempt++ {
		plan, ok := placeShared(ctx, j, guest)
		if !ok {
			return sharePlan{}, false
		}
		if !plan.shared || len(shadows) == 0 || !ctx.Share.InflationAccounting {
			return plan, true
		}
		// Find hosts whose postponed release would break a reservation:
		// their release was due at or before some shadow time and the
		// co-allocation pushes it past.
		offender := -1
	scan:
		for _, s := range sc.slots {
			for _, rs := range ctx.residents(s.node) {
				oldEnd := effectiveEnd(ctx, rs)
				newEnd := inflatedEnd(ctx, rs, j, guest)
				if newEnd <= oldEnd {
					continue
				}
				for _, shadow := range shadows {
					if oldEnd <= shadow && newEnd > shadow {
						offender = s.node
						break scan
					}
				}
			}
		}
		if offender == -1 {
			return plan, true
		}
		sc.bar(offender)
	}
	return sharePlan{}, false
}

// commitShare records the local effects of a decision within this scheduling
// pass: claimed nodes and postponed host releases.
func commitShare(ctx *Context, j *job.Job, guest int32, plan sharePlan) {
	sc := ctx.sc
	for _, s := range sc.slots {
		sc.claim(s.node)
		if plan.shared {
			for _, rs := range ctx.residents(s.node) {
				if newEnd := inflatedEnd(ctx, rs, j, guest); newEnd > sc.endOverride[rs] {
					sc.endOverride[rs] = newEnd
				}
			}
		}
	}
}

// noOverride marks a running job whose release this pass has not postponed.
// It compares below every end time.
var noOverride = des.Time(math.Inf(-1))

// effectiveEnd returns the planning end time of the running job in slot s,
// honoring both the inflation-accounting switch and any postponement from
// this pass.
func effectiveEnd(ctx *Context, s int32) des.Time {
	end := ctx.sc.bySlot[s].end
	if o := ctx.sc.endOverride[s]; o > end {
		end = o
	}
	return end
}

// inflatedEnd estimates when the host in slot s will release its nodes if
// job j (application guest) is co-allocated beside it: the host's remaining
// requested work divided by its new (slower) progress rate.
func inflatedEnd(ctx *Context, s int32, j *job.Job, guest int32) des.Time {
	oldEnd := effectiveEnd(ctx, s)
	oldRate := ctx.sc.bySlot[s].run.Rate
	if oldRate <= 0 {
		oldRate = 1
	}
	remaining := float64(oldEnd-ctx.Now) * oldRate
	newRate := ctx.hostRateWith(s, j, guest)
	if newRate < oldRate {
		// Synchronized parallel semantics: the host runs at the slower of
		// its current rate and the newly contended node's rate.
		oldRate = newRate
	}
	if oldRate <= 0 {
		oldRate = 1e-3
	}
	return ctx.Now + des.Duration(remaining/oldRate)
}

// slot is one node of a placement under construction.
type slot struct {
	node   int
	shared bool          // a co-allocation: the node already hosts a job
	layer  cluster.Layer // the layer the job takes there
	rate   float64       // the job's estimated rate on a shared node
}

// sharePlan summarises the placement placeShared left in scratch.slots.
type sharePlan struct {
	shared bool    // at least one slot is a co-allocation
	idle   int     // slots on idle nodes
	rate   float64 // worst estimated rate across the shared slots, 1 without
}

// placeShared plans a sharing-aware placement for j (application guest)
// from co-allocation host groups and idle nodes, ordered by the PreferShared
// setting. Whole host groups are taken before partial ones so guests cover
// hosts fully whenever possible (see hostGroup). The chosen nodes are left
// in scratch.slots; nothing is claimed and nothing allocated until the
// caller turns the plan into a decision.
func placeShared(ctx *Context, j *job.Job, guest int32) (sharePlan, bool) {
	sc := ctx.sc
	groups, cands := hostGroupsFor(ctx, j, guest)
	sc.slots = sc.slots[:0]
	if ctx.Share.PreferShared {
		addWholeGroups(sc, groups, cands, j.Nodes)
		addIdle(ctx, j.Nodes)
		addPartialGroups(sc, groups, cands, j.Nodes)
	} else {
		addIdle(ctx, j.Nodes)
		addWholeGroups(sc, groups, cands, j.Nodes)
		addPartialGroups(sc, groups, cands, j.Nodes)
	}
	if len(sc.slots) < j.Nodes {
		return sharePlan{}, false
	}
	plan := sharePlan{rate: 1}
	for _, s := range sc.slots {
		if !s.shared {
			plan.idle++
			continue
		}
		plan.shared = true
		if s.rate < plan.rate {
			plan.rate = s.rate
		}
	}
	return plan, true
}

// addWholeGroups takes every group that fits entirely within what the
// placement still needs of its want nodes.
func addWholeGroups(sc *scratch, groups []hostGroup, cands []shareCandidate, want int) {
	for gi := range groups {
		g := &groups[gi]
		if g.taken || g.hi-g.lo > want-len(sc.slots) {
			continue
		}
		for _, c := range cands[g.lo:g.hi] {
			sc.slots = append(sc.slots, slot{c.node, true, c.layer, c.rate})
		}
		g.taken = true
	}
}

// addPartialGroups fills what is still missing from the remaining groups —
// the last resort: partially covering a host wastes its uncovered nodes.
func addPartialGroups(sc *scratch, groups []hostGroup, cands []shareCandidate, want int) {
	for gi := range groups {
		g := &groups[gi]
		if g.taken {
			continue
		}
		for _, c := range cands[g.lo:g.hi] {
			if len(sc.slots) == want {
				return
			}
			sc.slots = append(sc.slots, slot{c.node, true, c.layer, c.rate})
		}
		g.taken = true
	}
}

// addIdle fills what is still missing from idle nodes.
func addIdle(ctx *Context, want int) {
	sc := ctx.sc
	if len(sc.slots) == want {
		return
	}
	for _, ni := range idleCandidates(ctx) {
		if len(sc.slots) == want {
			return
		}
		sc.slots = append(sc.slots, slot{ni, false, cluster.PrimaryLayer, 1})
	}
}

// decision turns the plan in scratch.slots into the Decision handed back to
// the caller — the one piece of a pass that is freshly allocated.
//
// With sharing off the plan is idle nodes alone, and the job takes them
// whole, as the exclusive ancestors allocate.
func (plan sharePlan) decision(ctx *Context, j *job.Job) Decision {
	sc := ctx.sc
	if !ctx.Share.Enabled {
		sc.whole = sc.whole[:0]
		for _, s := range sc.slots {
			sc.whole = append(sc.whole, s.node)
		}
		return Decision{Job: j, Placement: ctx.Cluster.ExclusivePlacement(j.ID, sc.whole, j.App.MemPerNodeMB), EstimatedRate: 1}
	}
	p := cluster.Placement{Job: j.ID, Nodes: make([]cluster.NodePlacement, len(sc.slots))}
	for i, s := range sc.slots {
		p.Nodes[i] = cluster.NodePlacement{
			Node:     s.node,
			Threads:  ctx.Cluster.LayerThreads(s.node, s.layer),
			MemoryMB: j.App.MemPerNodeMB,
		}
	}
	return Decision{Job: j, Placement: p, Shared: plan.shared, EstimatedRate: plan.rate}
}
