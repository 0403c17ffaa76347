package sched

import (
	"fmt"
	"sort"

	"repro/internal/des"
)

// Profile queries only the tests read: profile_test.go checks the profile's
// capacity with them and cutoff_test.go counts its breakpoints.

// FreeAt returns the free capacity at time t (t at or after the profile
// start).
func (p *Profile) FreeAt(t des.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	if i < 0 {
		panic(fmt.Sprintf("sched: FreeAt(%v) before profile start %v", t, p.times[0]))
	}
	return p.free[i]
}

// Len returns the number of breakpoints.
func (p *Profile) Len() int { return len(p.times) }
