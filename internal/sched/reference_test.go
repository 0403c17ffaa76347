package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// The unoptimised planner, kept as the reference the optimised one is held
// against: the profile with the quadratic FindStart, the full-range Reserve
// and the two insertBreaks; the two backfill skeletons that walk the whole
// queue, the exclusive one as the baselines ran it before they became the
// sharing skeletons with sharing off; and first fit, exclusive and sharing,
// without bounds. Nothing outside this file's tests may call them.

type refProfile struct {
	times []des.Time
	free  []int
}

func (p *refProfile) start(now des.Time, freeNow int) {
	p.times = append(p.times[:0], now)
	p.free = append(p.free[:0], freeNow)
}

func (p *refProfile) release(at des.Time, nodes int) {
	last := len(p.times) - 1
	switch {
	case at <= p.times[0]:
		p.free[0] += nodes
	case at == p.times[last]:
		p.free[last] += nodes
	default:
		p.times = append(p.times, at)
		p.free = append(p.free, p.free[last]+nodes)
	}
}

func (p *refProfile) FindStart(n int, d des.Duration) (des.Time, bool) {
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

func (p *refProfile) Reserve(at des.Time, d des.Duration, n int) {
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

func (p *refProfile) insertBreak(t des.Time) {
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

// fits reports whether n nodes are free over the whole of [at, at+d).
func (p *refProfile) fits(at des.Time, d des.Duration, n int) bool {
	end := endOf(at, d)
	for i := range p.times {
		segEnd := des.Forever
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		if segEnd > at && p.times[i] < end && p.free[i] < n {
			return false
		}
	}
	return at >= p.times[0]
}

func refBuildNodeProfile(ctx *Context) *refProfile {
	releaseAt := make([]des.Time, ctx.Cluster.Size())
	for _, r := range ctx.Running {
		end := predictedEnd(r, ctx.Share)
		for _, ni := range r.NodeIDs {
			if end > releaseAt[ni] {
				releaseAt[ni] = end
			}
		}
	}
	var ends []des.Time
	for _, end := range releaseAt {
		if end > 0 {
			ends = append(ends, end)
		}
	}
	slices.Sort(ends)
	p := &refProfile{}
	p.start(ctx.Now, len(ctx.sc.idle))
	for _, end := range ends {
		p.release(end, 1)
	}
	return p
}

func refBackfillExclusive(ctx *Context, maxReservations int) ([]Decision, *refProfile) {
	ctx.begin()
	var out []Decision
	profile := refBuildNodeProfile(ctx)
	reservations := 0
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		wall := j.ReqWalltime
		start, ok := profile.FindStart(j.Nodes, wall)
		if !ok {
			continue
		}
		if start <= ctx.Now {
			nodes, got := pickIdle(ctx, j.Nodes)
			if !got {
				if reservations < maxReservations {
					profile.Reserve(start, wall, j.Nodes)
					reservations++
				}
				continue
			}
			profile.Reserve(ctx.Now, wall, j.Nodes)
			out = append(out, exclusiveDecision(ctx, j, nodes))
			continue
		}
		if reservations < maxReservations {
			profile.Reserve(start, wall, j.Nodes)
			reservations++
		}
	}
	return out, profile
}

func refScheduleShare(ctx *Context, maxReservations int) []Decision {
	sc := ctx.beginShare()
	var out []Decision
	sc.endOverride = resize(sc.endOverride, len(ctx.Running))
	for i := range sc.endOverride {
		sc.endOverride[i] = noOverride
	}
	profile := refBuildNodeProfile(ctx)
	reserve := func(j *job.Job) {
		if start, ok := profile.FindStart(j.Nodes, j.ReqWalltime); ok {
			sc.shadows = append(sc.shadows, start)
			profile.Reserve(start, j.ReqWalltime, j.Nodes)
		}
	}
	slots := slotBound(ctx)
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		blockedBefore := len(sc.shadows) > 0
		if blockedBefore && slots <= 0 && len(sc.shadows) >= maxReservations {
			break
		}
		guest := sc.appOf(&j.App)
		if blockedBefore && (j.Nodes > slots || sc.knownToFail(j, guest)) {
			if len(sc.shadows) < maxReservations {
				reserve(j)
			}
			continue
		}
		if plan, ok := placeGuarded(ctx, j, guest); ok {
			if plan.idle > 0 {
				start, fits := profile.FindStart(plan.idle, j.ReqWalltime)
				if !fits || start > ctx.Now {
					if !blockedBefore || len(sc.shadows) < maxReservations {
						reserve(j)
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
		if len(sc.shadows) < maxReservations {
			reserve(j)
			continue
		}
		sc.recordFail(j, guest)
	}
	return out
}

// refHostGroupsFor collects the host groups for j (application guest) from
// nothing at every call, as hostGroupsFor did before its memo: into fresh
// candidates, judging every host node's pairing on its own.
func refHostGroupsFor(ctx *Context, j *job.Job, guest int32) ([]hostGroup, []shareCandidate) {
	sc := ctx.sc
	if !ctx.Share.Enabled {
		return nil, nil
	}
	var groups []hostGroup
	var cands []shareCandidate
	for i, r := range ctx.Running {
		g := hostGroup{lo: len(cands), score: 1, rate: 1}
		for _, ni := range sc.bySlot[sc.runSlot[i]].hosts {
			in := &sc.info[ni]
			if sc.claimed[ni] || sc.barred[ni] || in.memFree < j.App.MemPerNodeMB {
				continue
			}
			p := ctx.compatFor(j, guest, ni, in)
			if !p.ok {
				continue
			}
			cands = append(cands, shareCandidate{node: ni, layer: in.layer, score: p.score, rate: p.rate})
			g.score = min(g.score, p.score)
			g.rate = min(g.rate, p.rate)
		}
		g.hi = len(cands)
		if g.hi == g.lo {
			continue
		}
		g.first = cands[g.lo].node
		g.fullHost = g.hi-g.lo == len(r.NodeIDs)
		groups = append(groups, g)
	}
	if ctx.Share.PairingAware {
		slices.SortStableFunc(groups, func(a, b hostGroup) int {
			switch {
			case a.fullHost != b.fullHost:
				if a.fullHost {
					return -1
				}
				return 1
			case a.score != b.score:
				if a.score > b.score {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.first, b.first)
		})
	}
	return groups, cands
}

// groupsSignature renders host groups with their candidates for comparison.
func groupsSignature(groups []hostGroup, cands []shareCandidate) string {
	var b strings.Builder
	for _, g := range groups {
		fmt.Fprintf(&b, "[first %d full %v score %g rate %g taken %v:", g.first, g.fullHost, g.score, g.rate, g.taken)
		for _, c := range cands[g.lo:g.hi] {
			fmt.Fprintf(&b, " %d/%d/%g/%g", c.node, c.layer, c.score, c.rate)
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// refFirstFit starts every job that fits the unclaimed idle nodes, in queue
// order, on whole nodes — first fit as it was before it ran ShareFirstFit's
// skeleton — or, when strict, stops at the first that does not: FCFS.
func refFirstFit(ctx *Context, strict bool) []Decision {
	ctx.begin()
	var out []Decision
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		nodes, ok := pickIdle(ctx, j.Nodes)
		if !ok {
			if strict {
				break
			}
			continue
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// refShareFirstFit is sharing first fit without its bounds: every job that
// fits the machine is placed through the host groups, idle nodes or not.
func refShareFirstFit(ctx *Context) []Decision {
	sc := ctx.beginShare()
	var out []Decision
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		plan, ok := placeShared(ctx, j, sc.appOf(&j.App))
		if !ok {
			continue
		}
		out = append(out, plan.decision(ctx, j))
		for _, s := range sc.slots {
			sc.claim(s.node)
		}
	}
	return out
}

// refSchedule plans one pass of the named policy with the reference
// skeletons: the baselines under the zero share configuration whatever the
// Context carries, the sharing policies under the default one.
func refSchedule(name string, ctx *Context) []Decision {
	var out []Decision
	switch name {
	case "fcfs":
		out = refFirstFit(ctx, true)
	case "firstfit":
		out = refFirstFit(ctx, false)
	case "easy":
		out, _ = refBackfillExclusive(ctx.withShare(ShareConfig{}), 1)
	case "conservative":
		out, _ = refBackfillExclusive(ctx.withShare(ShareConfig{}), len(ctx.Queue))
	case "sharefirstfit":
		out = refShareFirstFit(ctx.withShare(DefaultShareConfig()))
	case "sharebackfill":
		out = refScheduleShare(ctx.withShare(DefaultShareConfig()), 1)
	case "shareconservative":
		out = refScheduleShare(ctx.withShare(DefaultShareConfig()), len(ctx.Queue))
	default:
		panic("sched: no reference for policy " + name)
	}
	return out
}

// Differential: on seeded random start / release / FindStart / Reserve
// sequences the one-sweep profile answers every FindStart as the quadratic
// one does and holds the same (times, free) step function after every
// Reserve. The sequences draw times from a coarse grid so breakpoints
// coincide, ask for more nodes than the machine ever frees, hold nodes
// forever, and reserve at the profile start, inside segments and on
// breakpoints.
func TestProfileMatchesReference(t *testing.T) {
	const sequences = 12000
	unplaceable, forever, atStart, later := 0, 0, 0, 0
	for seed := uint64(1); seed <= sequences; seed++ {
		rng := des.NewRNG(seed)
		now := des.Time(rng.Intn(4) * 50)
		grid := func(n int) des.Time { return des.Time(rng.Intn(n) * 50) }
		duration := func() des.Duration {
			switch rng.Intn(12) {
			case 0:
				return des.Forever
			case 1:
				return des.Duration(rng.Uniform(1, 700))
			}
			return 50 + grid(12)
		}

		freeNow := rng.Intn(6)
		capacity := freeNow
		got, want := &Profile{}, &refProfile{}
		got.start(now, freeNow)
		want.start(now, freeNow)
		at := now - 50
		for k := rng.Intn(8); k > 0; k-- {
			at += grid(4) // 0 repeats the previous release time
			nodes := rng.Intn(4)
			capacity += nodes
			got.release(at, nodes)
			want.release(at, nodes)
		}
		same := func(op string) {
			t.Helper()
			if !slices.Equal(got.times, want.times) || !slices.Equal(got.free, want.free) {
				t.Fatalf("seed %d: after %s the profile is\n%v\n%v, the reference\n%v\n%v",
					seed, op, got.times, got.free, want.times, want.free)
			}
		}
		same("release")

		for k := 2 + rng.Intn(14); k > 0; k-- {
			n, d := rng.Intn(capacity+3), duration()
			if rng.Intn(10) == 0 {
				d = 0 // asked, never reserved
			}
			gotAt, gotOK := got.FindStart(n, d)
			wantAt, wantOK := want.FindStart(n, d)
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("seed %d: FindStart(%d, %v) = %v,%v, the reference %v,%v on\n%v\n%v",
					seed, n, d, gotAt, gotOK, wantAt, wantOK, want.times, want.free)
			}
			switch {
			case !wantOK:
				unplaceable++
				continue
			case d == 0:
				continue
			case d == des.Forever:
				forever++
			}
			// Reserve at the answer, or at a later time that still fits.
			resAt := wantAt
			if shifted := wantAt + des.Time(rng.Uniform(0, 400)); rng.Intn(3) == 0 && want.fits(shifted, d, n) {
				resAt = shifted
				later++
			}
			if resAt == now {
				atStart++
			}
			op := fmt.Sprintf("Reserve(%v, %v, %d)", resAt, d, n)
			got.Reserve(resAt, d, n)
			want.Reserve(resAt, d, n)
			same(op)
		}
	}
	for name, n := range map[string]int{
		"request above the final capacity": unplaceable, "open-ended reservation": forever,
		"reservation at the profile start": atStart, "reservation after the earliest start": later,
	} {
		if n < sequences/20 {
			t.Errorf("only %d steps exercised a %s", n, name)
		}
	}
}

// deepState builds a mid-run state of a 16-node machine from a seed: idle
// nodes left idle, the rest under exclusive, single-layer and doubly occupied
// running jobs of one to four nodes, and depth queued jobs whose requests run
// from one node to one more than the machine has.
func deepState(t *testing.T, seed uint64, depth, idle int, topo bool) *Context {
	t.Helper()
	const nodes = 16
	rng := des.NewRNG(seed)
	c := cluster.New(cluster.Config{Nodes: nodes, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 128 * 1024})
	cat := app.Catalogue()
	id := cluster.JobID(1000)
	var running []*RunningJob
	start := func(a app.Model, on []int, layer cluster.Layer, exclusive bool) {
		id++
		p := c.LayerPlacement(id, on, layer, a.MemPerNodeMB)
		if exclusive {
			p = c.ExclusivePlacement(id, on, a.MemPerNodeMB)
		}
		if err := c.Allocate(p); err != nil {
			t.Fatalf("setup allocation failed: %v", err)
		}
		j := &job.Job{ID: id, Name: "run", App: a, Nodes: len(on), ReqWalltime: 4000, TrueRuntime: 3000}
		j.Start(0)
		end := des.Time(600 + 100*rng.Intn(12)) // coarse, so releases coincide
		running = append(running, &RunningJob{
			Job: j, NodeIDs: on, Exclusive: exclusive,
			NominalEnd: end, PredictedEnd: end + des.Time(50*rng.Intn(3)), Rate: 1,
		})
	}
	busy := rng.Perm(nodes)[:nodes-idle]
	for len(busy) > 0 {
		on := slices.Clone(busy[:min(1+rng.Intn(4), len(busy))])
		busy = busy[len(on):]
		slices.Sort(on)
		switch rng.Intn(3) {
		case 0:
			start(cat[rng.Intn(len(cat))], on, cluster.PrimaryLayer, true)
		case 1:
			start(cat[rng.Intn(len(cat))], on, cluster.PrimaryLayer, false)
		default:
			start(cat[rng.Intn(len(cat))], on, cluster.PrimaryLayer, false)
			start(cat[rng.Intn(len(cat))], on, cluster.Layer(1), false)
		}
	}

	queue := make([]*job.Job, depth)
	for i := range queue {
		id++
		want := 1 + rng.Intn(4)
		if rng.Intn(4) == 0 {
			want = 1 + rng.Intn(nodes+1) // may exceed the machine
		}
		wall := des.Duration(300 + 100*rng.Intn(20))
		if rng.Intn(100) == 0 {
			wall = des.Forever
		}
		queue[i] = &job.Job{ID: id, Name: "q", App: cat[rng.Intn(len(cat))], Nodes: want,
			ReqWalltime: wall, TrueRuntime: wall, Submit: des.Time(i)}
	}
	ctx := &Context{Now: 500, Cluster: c, Queue: queue, Running: running,
		Inter: interference.Default(), Share: DefaultShareConfig()}
	if topo {
		tp := topology.Default(nodes)
		ctx.Topo = &tp
	}
	return ctx
}

// Differential (INV-10 across the cut-off): all seven policies plan, byte for
// byte, what the uncut skeletons on the quadratic profile plan — from an
// empty queue to one 400 deep, from a full machine to an empty one, with and
// without a topology.
func TestSkeletonsMatchReference(t *testing.T) {
	depths := []int{0, 1, 2, 5, 17, 60, 150, 400}
	idles := []int{0, 1, 2, 5, 8, 16}
	seeds := uint64(4)
	if testing.Short() {
		depths, seeds = []int{0, 2, 17, 150}, 2
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			started, shared := 0, 0
			for seed := uint64(1); seed <= seeds; seed++ {
				for _, depth := range depths {
					for _, idle := range idles {
						for _, topo := range []bool{false, true} {
							s := seed*1000 + uint64(depth*17+idle)
							got := pol.Schedule(deepState(t, s, depth, idle, topo))
							want := refSchedule(name, deepState(t, s, depth, idle, topo))
							if g, w := decisionSignature(got), decisionSignature(want); g != w {
								t.Fatalf("seed %d depth %d idle %d topo %v: planned\n%s, the reference\n%s",
									s, depth, idle, topo, g, w)
							}
							for _, d := range got {
								started++
								if d.Shared {
									shared++
								}
							}
						}
					}
				}
			}
			if started == 0 {
				t.Fatal("no state planned a start")
			}
			if strings.HasPrefix(name, "share") && shared == 0 {
				t.Fatal("no state planned a co-allocation")
			}
		})
	}
}

// The baselines plan under their own zero share configuration, whatever the
// caller's Context carries (see New): on the mid-run states, whose running
// jobs' inflated ends differ from their nominal ones, each plans byte for
// byte the same under the paper's configuration and under none.
func TestBaselinesIgnoreCallerShare(t *testing.T) {
	for _, name := range []string{"easy", "conservative", "firstfit"} {
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, ShareConfig{})
			if err != nil {
				t.Fatal(err)
			}
			started := 0
			for seed := uint64(1); seed <= 40; seed++ {
				for _, idle := range []int{1, 3, 6} {
					withShare := deepState(t, seed, 30, idle, false)
					without := deepState(t, seed, 30, idle, false)
					without.Share = ShareConfig{}
					got, want := pol.Schedule(withShare), pol.Schedule(without)
					if g, w := decisionSignature(got), decisionSignature(want); g != w {
						t.Fatalf("seed %d idle %d: under the caller's sharing configuration planned\n%s, under none\n%s",
							seed, idle, g, w)
					}
					started += len(got)
				}
			}
			if started == 0 {
				t.Fatal("no state planned a start")
			}
		})
	}
}

// Differential: the release list appendReleases derives per running job,
// which a pass with sharing off opens its profile from, and the list kept
// with the sharing world open the same (times, free) as the per-node build
// they replaced — on
// seeded mid-run states and on hand-built ones whose shared nodes' residents
// end together, one after the other either way round, at or before Now, and
// at 0; each with inflation accounting on and off.
func TestBuildNodeProfileMatchesReference(t *testing.T) {
	check := func(name string, ctx *Context) {
		t.Helper()
		for _, inflation := range []bool{true, false} {
			ctx.Share.InflationAccounting = inflation
			sc := ctx.begin()
			got := sc.openProfile(ctx.Now, appendReleases(ctx, nil, nil))
			want := refBuildNodeProfile(ctx)
			if !slices.Equal(got.times, want.times) || !slices.Equal(got.free, want.free) {
				t.Fatalf("%s, inflation %v: profile\n%v\n%v, the reference\n%v\n%v",
					name, inflation, got.times, got.free, want.times, want.free)
			}
			// The sharing planners' release list, kept with their world.
			sc = ctx.beginShare()
			got = sc.openProfile(ctx.Now, sc.shareRel)
			if !slices.Equal(got.times, want.times) || !slices.Equal(got.free, want.free) {
				t.Fatalf("%s, inflation %v: sharing profile\n%v\n%v, the reference\n%v\n%v",
					name, inflation, got.times, got.free, want.times, want.free)
			}
		}
	}
	for seed := uint64(1); seed <= 300; seed++ {
		for _, idle := range []int{0, 3, 16} {
			check(fmt.Sprintf("seed %d idle %d", seed, idle), deepState(t, seed, 0, idle, false))
		}
	}

	c := cluster.New(cluster.Config{Nodes: 10, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1024})
	a := app.Catalogue()[0]
	var running []*RunningJob
	start := func(on []int, layer cluster.Layer, nominal, predicted des.Time) {
		id := cluster.JobID(len(running) + 1)
		if err := c.Allocate(c.LayerPlacement(id, on, layer, 0)); err != nil {
			t.Fatal(err)
		}
		j := &job.Job{ID: id, App: a, Nodes: len(on), ReqWalltime: 4000, TrueRuntime: 3000}
		running = append(running, &RunningJob{Job: j, NodeIDs: on, NominalEnd: nominal, PredictedEnd: predicted, Rate: 1})
	}
	start([]int{0, 1, 2}, cluster.PrimaryLayer, 1000, 1000)
	start([]int{1, 2, 3}, cluster.SecondaryLayer, 1000, 1000) // same end on shared nodes
	start([]int{4, 5}, cluster.PrimaryLayer, 800, 850)
	start([]int{4, 5}, cluster.SecondaryLayer, 1200, 1150) // the later resident second
	start([]int{6}, cluster.PrimaryLayer, 1500, 1400)
	start([]int{6}, cluster.SecondaryLayer, 900, 1400) // the later resident first; equal when inflated
	start([]int{7}, cluster.PrimaryLayer, 600, 400)    // predicted end before Now
	start([]int{7}, cluster.SecondaryLayer, 500, 500)  // ends at Now
	start([]int{8}, cluster.PrimaryLayer, 0, 0)        // ends at 0: the node counts as unoccupied
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1, 0}, {3, 1, 5, 7, 0, 2, 8, 4, 6}} {
		ctx := &Context{Now: 500, Cluster: c, Inter: interference.Default(), Share: DefaultShareConfig()}
		for _, i := range order {
			ctx.Running = append(ctx.Running, running[i])
		}
		check(fmt.Sprintf("hand-built, running order %v", order), ctx)
	}
}

// Differential: the memoised host groups equal those built from nothing on
// every query — on seeded sharing passes that ask for the same applications
// again and again while claiming nodes (idle, hosting, already claimed),
// barring hosts and lifting the bars in between, that consume groups the way
// placeShared does before the next query, and that start a new pass on the
// same world now and then. Every answer must come back untaken.
func TestHostGroupsMatchReference(t *testing.T) {
	counts := map[string]int{}
	for seed := uint64(1); seed <= 400; seed++ {
		rng := des.NewRNG(seed)
		ctx := deepState(t, seed, 12, rng.Intn(5), false)
		cfg := DefaultShareConfig()
		cfg.PairingAware = rng.Intn(4) != 0
		cfg.MinComplementarity = []float64{0, 0.2, 0.4}[rng.Intn(3)]
		ctx = ctx.withShare(cfg)
		sc := ctx.beginShare()
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(20); {
			case op < 2:
				sc.claim(rng.Intn(ctx.Cluster.Size()))
			case op < 4:
				sc.bar(rng.Intn(ctx.Cluster.Size()))
			case op == 4:
				sc.unbar()
			case op == 5:
				sc = ctx.beginShare()
			default:
				j := ctx.Queue[rng.Intn(3)] // few applications, so queries repeat
				guest := sc.appOfJob(j)
				switch m := memoOf(sc, guest); {
				case m == nil || m.world == 0:
					counts["first query"]++
				case m.world != sc.world:
					counts["first query of a pass"]++
				case sc.anyBar:
					counts["query under bars"]++
				case sc.claims > 0 && (m.pass != sc.pass || m.claims != sc.claims):
					counts["query after a claim"]++
				case sc.claims > 0:
					counts["memo hit under claims"]++
				default:
					counts["memo hit"]++
				}
				groups, cands := hostGroupsFor(ctx, j, guest)
				wantGroups, wantCands := refHostGroupsFor(ctx, j, guest)
				if got, want := groupsSignature(groups, cands), groupsSignature(wantGroups, wantCands); got != want {
					t.Fatalf("seed %d step %d: host groups\n%s, the reference\n%s", seed, step, got, want)
				}
				if len(groups) > 0 {
					counts["query with a host group"]++
				}
				for gi := range groups {
					groups[gi].taken = rng.Intn(2) == 0
				}
			}
		}
	}
	t.Logf("queries: %v", counts)
	for _, what := range []string{
		"memo hit", "first query", "first query of a pass", "query after a claim",
		"memo hit under claims", "query under bars", "query with a host group",
	} {
		if counts[what] < 1000 {
			t.Errorf("only %d queries were a %s", counts[what], what)
		}
	}
}

// memoOf returns the host-group memo of application guest, nil before its
// first query.
func memoOf(sc *scratch, guest int32) *groupMemo {
	if int(guest) >= len(sc.groups) {
		return nil
	}
	return &sc.groups[guest]
}
