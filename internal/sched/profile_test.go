package sched

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// futureRelease is a future capacity increase: nodes whole nodes become free
// at At.
type futureRelease struct {
	At    des.Time
	Nodes int
}

// newProfile builds a profile on the planner's own start/release path,
// starting at now with freeNow free nodes and the given future releases in
// any order. Releases at or before now are folded into the initial capacity
// (their jobs are finishing as we plan).
func newProfile(now des.Time, freeNow int, releases []futureRelease) *Profile {
	releases = slices.Clone(releases)
	slices.SortFunc(releases, func(a, b futureRelease) int { return cmp.Compare(a.At, b.At) })
	p := &Profile{}
	p.start(now, freeNow)
	for _, r := range releases {
		p.release(r.At, r.Nodes)
	}
	return p
}

func TestProfileFreeAt(t *testing.T) {
	p := newProfile(0, 2, []futureRelease{{At: 100, Nodes: 3}, {At: 200, Nodes: 1}})
	cases := []struct {
		t    des.Time
		want int
	}{
		{0, 2}, {99, 2}, {100, 5}, {150, 5}, {200, 6}, {1e9, 6},
	}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestProfileReleaseAggregation(t *testing.T) {
	p := newProfile(0, 0, []futureRelease{{At: 50, Nodes: 1}, {At: 50, Nodes: 2}})
	if got := p.FreeAt(50); got != 3 {
		t.Fatalf("FreeAt(50) = %d, want 3 (same-time releases must aggregate)", got)
	}
}

func TestProfilePastReleaseFoldedIn(t *testing.T) {
	p := newProfile(100, 1, []futureRelease{{At: 100, Nodes: 2}, {At: 50, Nodes: 1}})
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt(now) = %d, want 4 (releases at/before now fold into base)", got)
	}
}

func TestProfileFindStart(t *testing.T) {
	p := newProfile(0, 2, []futureRelease{{At: 100, Nodes: 2}, {At: 300, Nodes: 4}})
	// 2 nodes available immediately.
	if at, ok := p.FindStart(2, 50); !ok || at != 0 {
		t.Fatalf("FindStart(2) = %v,%v, want 0,true", at, ok)
	}
	// 4 nodes only after the first release.
	if at, ok := p.FindStart(4, 50); !ok || at != 100 {
		t.Fatalf("FindStart(4) = %v,%v, want 100,true", at, ok)
	}
	// 8 nodes after the second.
	if at, ok := p.FindStart(8, des.Forever); !ok || at != 300 {
		t.Fatalf("FindStart(8) = %v,%v, want 300,true", at, ok)
	}
	// More than the machine ever frees.
	if _, ok := p.FindStart(9, 10); ok {
		t.Fatal("FindStart(9) succeeded beyond final capacity")
	}
	// Zero nodes start immediately.
	if at, ok := p.FindStart(0, 10); !ok || at != 0 {
		t.Fatalf("FindStart(0) = %v,%v", at, ok)
	}
}

func TestProfileFindStartRespectsDips(t *testing.T) {
	// Capacity: 4 now, dips to 1 at t=100 (a reservation), back to 5 at 200.
	p := newProfile(0, 4, []futureRelease{{At: 200, Nodes: 1}})
	p.Reserve(100, 100, 3)
	// A 2-node job of length 150 cannot start now (dip at 100 breaks it)…
	if at, ok := p.FindStart(2, 150); !ok || at != 200 {
		t.Fatalf("FindStart(2, 150) = %v,%v, want 200,true", at, ok)
	}
	// …but a 50-second job fits before the dip.
	if at, ok := p.FindStart(2, 50); !ok || at != 0 {
		t.Fatalf("FindStart(2, 50) = %v,%v, want 0,true", at, ok)
	}
}

func TestProfileReserve(t *testing.T) {
	p := newProfile(0, 4, nil)
	p.Reserve(10, 20, 3)
	if got := p.FreeAt(5); got != 4 {
		t.Fatalf("FreeAt(5) = %d", got)
	}
	if got := p.FreeAt(10); got != 1 {
		t.Fatalf("FreeAt(10) = %d", got)
	}
	if got := p.FreeAt(29); got != 1 {
		t.Fatalf("FreeAt(29) = %d", got)
	}
	if got := p.FreeAt(30); got != 4 {
		t.Fatalf("FreeAt(30) = %d", got)
	}
	// Reserving zero nodes is a no-op.
	before := p.Len()
	p.Reserve(15, 5, 0)
	if p.Len() != before {
		t.Fatal("Reserve(0 nodes) mutated the profile")
	}
}

func TestProfileReserveForever(t *testing.T) {
	p := newProfile(0, 4, nil)
	p.Reserve(10, des.Forever, 2)
	if got := p.FreeAt(1e12); got != 2 {
		t.Fatalf("open-ended reservation not applied: FreeAt(1e12) = %d", got)
	}
}

func TestProfileOverdrawPanics(t *testing.T) {
	p := newProfile(0, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	p.Reserve(0, 10, 3)
}

func TestProfileFreeAtBeforeStartPanics(t *testing.T) {
	p := newProfile(100, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAt before start did not panic")
		}
	}()
	p.FreeAt(50)
}

func TestProfileNegativeReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative release did not panic")
		}
	}()
	newProfile(0, 1, []futureRelease{{At: 10, Nodes: -1}})
}

// A release earlier than the last breakpoint would leave the breakpoints out
// of order under the searches of Reserve.
func TestProfileOutOfOrderReleasePanics(t *testing.T) {
	p := newProfile(0, 1, []futureRelease{{At: 100, Nodes: 1}, {At: 200, Nodes: 1}})
	for _, at := range []des.Time{150, 100, 0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("release at %v after one at 200 did not panic", at)
				}
			}()
			p.release(at, 1)
		}()
	}
	p.release(200, 1) // the last breakpoint again is in order
	if got := p.FreeAt(200); got != 4 {
		t.Fatalf("FreeAt(200) = %d, want 4", got)
	}
}

// A request that holds nodes for no time asks and reserves without leaving a
// trace: no breakpoint, no capacity change, wherever it falls.
func TestProfileZeroDurationLeavesProfileUnchanged(t *testing.T) {
	p := newProfile(0, 2, []futureRelease{{At: 100, Nodes: 2}, {At: 300, Nodes: 4}})
	p.Reserve(50, 100, 1)
	times, free := slices.Clone(p.times), slices.Clone(p.free)
	for _, at := range []des.Time{-10, 0, 25, 50, 120, 150, 300, 1e9} {
		p.Reserve(at, 0, 1)
		if start, ok := p.FindStart(3, 0); !ok || start != 100 {
			t.Fatalf("FindStart(3, 0) = %v,%v, want 100,true", start, ok)
		}
		if !slices.Equal(p.times, times) || !slices.Equal(p.free, free) {
			t.Fatalf("Reserve(%v, 0, 1) changed the profile to %v %v, was %v %v", at, p.times, p.free, times, free)
		}
	}
}

// Property: after any sequence of valid reservations found via FindStart,
// capacity never goes negative and FindStart results are consistent (the
// returned start admits the reservation).
func TestProperty_ProfileReservationsConsistent(t *testing.T) {
	f := func(jobs []struct {
		N   uint8
		Dur uint16
	}) bool {
		p := newProfile(0, 8, []futureRelease{{At: 500, Nodes: 4}, {At: 1000, Nodes: 4}})
		if len(jobs) > 12 {
			jobs = jobs[:12]
		}
		for _, jb := range jobs {
			n := int(jb.N)%8 + 1
			d := des.Duration(jb.Dur%2000) + 1
			at, ok := p.FindStart(n, d)
			if !ok {
				return false // 8 ≤ capacity, must always fit eventually
			}
			p.Reserve(at, d, n) // must not panic
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
