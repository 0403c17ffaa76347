package sched

import (
	"slices"

	"repro/internal/des"
	"repro/internal/job"
)

// FCFS is strict first-come-first-served with standard (exclusive) node
// allocation: the queue head blocks everything behind it until it fits.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements Policy.
func (FCFS) Schedule(ctx *Context) []Decision {
	ctx.begin()
	var out []Decision
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue // can never run anywhere; do not deadlock the queue
		}
		nodes, ok := pickIdle(ctx, j.Nodes)
		if !ok {
			break // strict FCFS: the head blocks
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// FirstFit scans the whole queue and starts any job that fits on idle nodes,
// in queue order. Unlike backfill it plans no reservations, so large jobs
// can starve under sustained small-job load.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "firstfit" }

// Schedule implements Policy.
func (FirstFit) Schedule(ctx *Context) []Decision {
	ctx.begin()
	var out []Decision
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		nodes, ok := pickIdle(ctx, j.Nodes)
		if !ok {
			continue // skip and try the next job
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// EASY is aggressive backfilling: the queue head gets a reservation at the
// earliest time enough nodes drain, and later jobs may jump ahead only if
// their requested walltime provably does not delay that reservation.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy" }

// Schedule implements Policy.
func (EASY) Schedule(ctx *Context) []Decision {
	return backfillExclusive(ctx, 1)
}

// Conservative backfilling gives every queued job a reservation, in queue
// order; a job may start now only when doing so honors all earlier
// reservations. Lower queue-jumping variance than EASY at some utilization
// cost.
type Conservative struct{}

// Name implements Policy.
func (Conservative) Name() string { return "conservative" }

// Schedule implements Policy.
func (Conservative) Schedule(ctx *Context) []Decision {
	return backfillExclusive(ctx, len(ctx.Queue))
}

// exclusiveDecision claims nodes for the pass and builds the standard
// whole-node allocation decision on them.
func exclusiveDecision(ctx *Context, j *job.Job, nodes []int) Decision {
	for _, ni := range nodes {
		ctx.sc.claim(ni)
	}
	return Decision{
		Job:           j,
		Placement:     ctx.Cluster.ExclusivePlacement(j.ID, nodes, j.App.MemPerNodeMB),
		Shared:        false,
		EstimatedRate: 1,
	}
}

// backfillExclusive is the shared skeleton of EASY and Conservative:
// reservations for the first maxReservations blocked jobs, backfill for the
// rest. Every started job runs on exclusive whole nodes, so the walk ends
// where no job at or behind it can start now on the unclaimed idle nodes
// (see nowStartable).
func backfillExclusive(ctx *Context, maxReservations int) []Decision {
	sc := ctx.begin()
	idle := len(sc.idle) // not yet claimed by this pass
	if idle == 0 {
		return nil
	}
	var out []Decision

	// The capacity profile sees a node as released when its last resident's
	// predicted end passes (with one job per node under exclusive policies,
	// that is simply the job's end).
	profile := buildNodeProfile(ctx)

	reservations := 0
	w := 0 // the now-start witness
	for i, j := range ctx.Queue {
		if w = nowStartable(ctx, profile, max(w, i), idle, 0); w == len(ctx.Queue) {
			break
		}
		if !fitsMachine(ctx, j) {
			continue
		}
		wall := j.ReqWalltime
		start, ok := profile.FindStart(j.Nodes, wall)
		if !ok {
			// Can never fit (request exceeds machine); skip.
			continue
		}
		if start <= ctx.Now {
			nodes, got := pickIdle(ctx, j.Nodes)
			if !got {
				// Profile says capacity exists but idle nodes disagree;
				// treat as blocked (can happen transiently when releases
				// land exactly now).
				if reservations < maxReservations {
					profile.Reserve(start, wall, j.Nodes)
					reservations++
				}
				continue
			}
			profile.Reserve(ctx.Now, wall, j.Nodes)
			out = append(out, exclusiveDecision(ctx, j, nodes))
			idle -= j.Nodes
			continue
		}
		// Blocked: plan a reservation if the budget allows; once the budget
		// is exhausted, later jobs may only start immediately (EASY) —
		// their fit was already checked against all reservations.
		if reservations < maxReservations {
			profile.Reserve(start, wall, j.Nodes)
			reservations++
		}
	}
	return out
}

// nowStartable returns the first queue position at or after from whose job
// could still start now, len(ctx.Queue) when there is none: the job fits the
// machine, asks for at most avail nodes — what the pass can still hand out —
// and the profile keeps all but shared of its nodes free from now for its
// whole walltime, shared being the most nodes a start can take beside
// running jobs instead of from the profile.
//
// It is the backfill skeletons' cut-off, and it is exact. Within a pass
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

// buildNodeProfile rebuilds the scratch's whole-node availability profile at
// the start of a pass, from the idle set and the running jobs' planned
// completion times.
func buildNodeProfile(ctx *Context) *Profile {
	sc := ctx.sc
	sc.releases = appendReleases(ctx, sc.releases[:0], nil)
	return sc.openProfile(ctx.Now, sc.releases)
}

// openProfile opens the scratch's profile at now with the pass's idle nodes
// free and replays releases, which must be sorted by time.
func (sc *scratch) openProfile(now des.Time, releases []nodeRelease) *Profile {
	sc.profile.start(now, len(sc.idle))
	for _, rel := range releases {
		sc.profile.release(rel.at, int(rel.nodes))
	}
	return &sc.profile
}

// appendReleases appends to out when the running jobs' nodes become whole
// free nodes, sorted by time, and, when relBy is not nil, sets relBy[ni] to
// the index in ctx.Running of the job that releases node ni (leaving it as
// it is for a node no job releases).
//
// A node shared by several jobs becomes a whole free node only when the
// latest resident leaves. Each occupied node is released by the first running
// job whose end is that release time, so the list holds one (end, nodes)
// release per running job, its slot the job's index: releases at equal times
// merge in the profile, which makes it the profile of one release per node.
func appendReleases(ctx *Context, out []nodeRelease, relBy []int32) []nodeRelease {
	sc := ctx.sc
	// Zero marks a node no running job occupies, -1 one already released.
	sc.releaseAt = resize(sc.releaseAt, ctx.Cluster.Size())
	clear(sc.releaseAt)
	for _, r := range ctx.Running {
		end := predictedEnd(r, ctx.Share)
		for _, ni := range r.NodeIDs {
			if end > sc.releaseAt[ni] {
				sc.releaseAt[ni] = end
			}
		}
	}
	for i, r := range ctx.Running {
		end := predictedEnd(r, ctx.Share)
		if end <= 0 {
			continue // cannot be a release time: those are positive
		}
		k := 0
		for _, ni := range r.NodeIDs {
			if sc.releaseAt[ni] == end {
				sc.releaseAt[ni] = -1
				if relBy != nil {
					relBy[ni] = int32(i)
				}
				k++
			}
		}
		if k > 0 {
			out = append(out, nodeRelease{at: end, nodes: int32(k), slot: int32(i)})
		}
	}
	slices.SortFunc(out, byTime)
	return out
}

// nodeRelease is k nodes becoming whole free nodes at one time, when the
// running job in slot slot ends.
type nodeRelease struct {
	at    des.Time
	nodes int32
	slot  int32
}
