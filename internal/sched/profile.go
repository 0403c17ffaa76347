package sched

import (
	"fmt"
	"slices"

	"repro/internal/des"
)

// Profile is a step function of free whole-node capacity over time, used by
// the backfill policies to plan reservations. Capacity changes only at
// breakpoints: releases from running jobs and starts of planned reservations.
type Profile struct {
	times []des.Time // ascending breakpoints; times[0] is the planning time
	free  []int      // free[i] holds on [times[i], times[i+1])
}

// start empties p, keeping its memory, and opens it at now with freeNow free
// nodes.
func (p *Profile) start(now des.Time, freeNow int) {
	p.times = append(p.times[:0], now)
	p.free = append(p.free[:0], freeNow)
}

// release adds a future capacity increase while the profile is being built.
// Calls must come in ascending time order, before any Reserve: Reserve
// searches the breakpoints, so a release out of order panics.
func (p *Profile) release(at des.Time, nodes int) {
	if nodes < 0 {
		panic(fmt.Sprintf("sched: release of %d nodes", nodes))
	}
	last := len(p.times) - 1
	switch {
	case last > 0 && at < p.times[last]:
		panic(fmt.Sprintf("sched: release at %v follows one at %v", at, p.times[last]))
	case at <= p.times[0]:
		p.free[0] += nodes // in time order, so nothing follows the start yet
	case at == p.times[last]:
		p.free[last] += nodes
	default:
		p.times = append(p.times, at)
		p.free = append(p.free, p.free[last]+nodes)
	}
}

// endOf returns when a reservation of duration d starting at at ends:
// des.Forever for an open-ended one.
func endOf(at des.Time, d des.Duration) des.Time {
	if d < des.Forever-at {
		return at + d
	}
	return des.Forever
}

// FindStart returns the earliest time at or after the profile start when n
// nodes are continuously free for duration d. d may be des.Forever for an
// open-ended reservation. The search always succeeds if n never exceeds the
// final (fully drained) capacity; otherwise ok is false.
//
// It is one forward sweep. Only the first breakpoint of a run of segments
// with free ≥ n can be the answer: the dip that cuts a reservation started
// there short also cuts short every later start in the same run.
func (p *Profile) FindStart(n int, d des.Duration) (des.Time, bool) {
	if n <= 0 {
		return p.times[0], true
	}
	times, free := p.times, p.free[:len(p.times)]
	for i := 0; i < len(times); {
		if free[i] < n {
			i++
			continue
		}
		// A run starts here; follow it to its first dip or past the end of
		// a reservation that starts with it.
		start := times[i]
		end := endOf(start, d)
		for i++; i < len(times) && times[i] < end && free[i] >= n; i++ {
		}
		if i == len(times) || times[i] >= end {
			return start, true
		}
	}
	return 0, false
}

// fitsNow reports whether n nodes are free from the profile start for
// duration d — FindStart(n, d) answering the profile start, found without
// looking past the first dip. A non-positive n fits.
func (p *Profile) fitsNow(n int, d des.Duration) bool {
	if n <= 0 {
		return true
	}
	end := endOf(p.times[0], d)
	for i, t := range p.times {
		if i > 0 && t >= end {
			break
		}
		if p.free[i] < n {
			return false
		}
	}
	return true
}

// Reserve subtracts n nodes over [at, at+d). It panics if the reservation
// overdraws the profile — callers must have validated with FindStart. An
// empty interval leaves the profile as it is.
func (p *Profile) Reserve(at des.Time, d des.Duration, n int) {
	end := endOf(at, d)
	if n <= 0 || end <= at {
		return
	}
	// The reservation covers times[lo:hi]. A breakpoint is missing where an
	// edge of the interval falls inside a segment; the part of the interval
	// before the profile start and an end at des.Forever need none.
	size := len(p.times)
	lo := p.search(0, at)
	hi := size
	if end != des.Forever {
		hi = p.search(lo, end)
	}
	addLo := lo > 0 && (lo == size || p.times[lo] != at)
	addHi := hi > 0 && end != des.Forever && (hi == size || p.times[hi] != end)
	grow := 0
	if addLo {
		grow++
	}
	if addHi {
		grow++
	}
	if grow > 0 {
		// One move makes room for both: the tail shifts by every new
		// breakpoint, the covered range by the one in front of it.
		p.times = slices.Grow(p.times, grow)[:size+grow]
		p.free = slices.Grow(p.free, grow)[:size+grow]
		copy(p.times[hi+grow:], p.times[hi:size])
		copy(p.free[hi+grow:], p.free[hi:size])
		if addHi {
			p.times[hi+grow-1], p.free[hi+grow-1] = end, p.free[hi-1]
		}
		if addLo {
			copy(p.times[lo+1:], p.times[lo:hi])
			copy(p.free[lo+1:], p.free[lo:hi])
			p.times[lo], p.free[lo] = at, p.free[lo-1]
			hi++
		}
	}
	for i := lo; i < hi; i++ {
		p.free[i] -= n
		if p.free[i] < 0 {
			panic(fmt.Sprintf("sched: reservation overdraws profile at %v (free %d)",
				p.times[i], p.free[i]))
		}
	}
}

// search returns the first index at or after from whose breakpoint is at or
// after t, len(p.times) when there is none.
func (p *Profile) search(from int, t des.Time) int {
	lo, hi := from, len(p.times)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); p.times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
