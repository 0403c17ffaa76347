package sched

import (
	"fmt"
	"sort"

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
// Calls must come in ascending time order, before any Reserve.
func (p *Profile) release(at des.Time, nodes int) {
	if nodes < 0 {
		panic(fmt.Sprintf("sched: release of %d nodes", nodes))
	}
	last := len(p.times) - 1
	switch {
	case at <= p.times[0]:
		p.free[0] += nodes // in time order, so nothing follows the start yet
	case at == p.times[last]:
		p.free[last] += nodes
	default:
		p.times = append(p.times, at)
		p.free = append(p.free, p.free[last]+nodes)
	}
}

// FreeAt returns the free capacity at time t (t at or after the profile
// start).
func (p *Profile) FreeAt(t des.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	if i < 0 {
		panic(fmt.Sprintf("sched: FreeAt(%v) before profile start %v", t, p.times[0]))
	}
	return p.free[i]
}

// FindStart returns the earliest time at or after the profile start when n
// nodes are continuously free for duration d. d may be des.Forever for an
// open-ended reservation. The search always succeeds if n never exceeds the
// final (fully drained) capacity; otherwise ok is false.
func (p *Profile) FindStart(n int, d des.Duration) (des.Time, bool) {
	if n <= 0 {
		return p.times[0], true
	}
	for i := range p.times {
		start := p.times[i]
		if p.free[i] < n {
			continue
		}
		end := des.Forever
		if d < des.Forever-start {
			end = start + d
		}
		ok := true
		for k := i + 1; k < len(p.times) && p.times[k] < end; k++ {
			if p.free[k] < n {
				ok = false
				break
			}
		}
		if ok {
			return start, true
		}
	}
	return 0, false
}

// Reserve subtracts n nodes over [at, at+d). It panics if the reservation
// overdraws the profile — callers must have validated with FindStart.
func (p *Profile) Reserve(at des.Time, d des.Duration, n int) {
	if n <= 0 {
		return
	}
	end := des.Forever
	if d < des.Forever-at {
		end = at + d
	}
	p.insertBreak(at)
	if end != des.Forever {
		p.insertBreak(end)
	}
	for i := range p.times {
		if p.times[i] >= at && p.times[i] < end {
			p.free[i] -= n
			if p.free[i] < 0 {
				panic(fmt.Sprintf("sched: reservation overdraws profile at %v (free %d)",
					p.times[i], p.free[i]))
			}
		}
	}
}

// insertBreak adds a breakpoint at t (no-op if present or before start).
func (p *Profile) insertBreak(t des.Time) {
	if t <= p.times[0] {
		return
	}
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if i < len(p.times) && p.times[i] == t {
		return
	}
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = p.free[i-1]
}

// Len returns the number of breakpoints (exported for tests).
func (p *Profile) Len() int { return len(p.times) }
