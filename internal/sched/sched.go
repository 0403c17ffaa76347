// Package sched implements the batch scheduling policies under study.
//
// Baselines (standard node allocation, nodes are exclusive):
//
//	FCFS         strict first-come-first-served
//	FirstFit     queue scan, start whatever fits
//	EASY         aggressive backfill with one reservation for the queue head
//	Conservative backfill with reservations for every queued job
//
// Paper contributions (node sharing by SMT core oversubscription):
//
//	ShareFirstFit     co-allocation-aware first fit
//	ShareBackfill     co-allocation-aware EASY backfill
//	ShareConservative co-allocation-aware conservative backfill
//
// The paper's strategies extend the backfill and first fit algorithms, and
// the code says so: FirstFit, EASY and Conservative are ShareFirstFit,
// ShareBackfill and ShareConservative with the zero ShareConfig — one pass
// skeleton each for first fit and for backfill. Only FCFS plans on its own.
//
// A policy is a pure decision procedure: it inspects a Context (queue,
// running set, cluster, interference model) and returns the list of jobs to
// start now together with their placements. The simulator owns all state
// mutation, which keeps every policy trivially testable.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// ShareConfig tunes the sharing-capable policies. The zero value disables
// sharing entirely, and with it a sharing policy is its exclusive ancestor:
// FirstFit, EASY and Conservative run the sharing skeletons under it.
type ShareConfig struct {
	// Enabled turns co-allocation on.
	Enabled bool
	// MaxDegree caps the number of jobs per node; 2 matches the paper's
	// hyper-threading sharing (one job per hardware-thread layer).
	MaxDegree int
	// MinComplementarity rejects pairings whose stress vectors overlap too
	// much (see app.Complementarity). 0 accepts everything.
	MinComplementarity float64
	// PairingAware sorts co-allocation candidates by complementarity with
	// the resident job; disabled (ablation) picks candidates in node order.
	PairingAware bool
	// InflationAccounting makes backfill reservations use
	// interference-inflated completion estimates, preserving the EASY
	// no-delay guarantee under sharing. Disabling it (ablation) plans with
	// nominal walltimes and can delay the queue head.
	InflationAccounting bool
	// PreferShared places jobs on co-allocation candidates before idle
	// nodes; disabling it (ablation) exhausts idle nodes first and shares
	// only under pressure.
	PreferShared bool
	// MinEstimatedRate rejects co-allocations whose estimated progress
	// rate — for the incoming job or any resident — falls below this
	// floor. Zero disables the check. Unlike MinComplementarity (a cheap
	// stress-vector heuristic), this gate consults the interference model
	// itself, so it also honors empirically measured pair matrices.
	MinEstimatedRate float64
}

// DefaultShareConfig returns the configuration the paper's strategies use.
func DefaultShareConfig() ShareConfig {
	return ShareConfig{
		Enabled:             true,
		MaxDegree:           2,
		MinComplementarity:  0.40,
		PairingAware:        true,
		InflationAccounting: true,
		PreferShared:        true,
	}
}

// RunningJob is the scheduler-visible state of a started job.
type RunningJob struct {
	// Job is the underlying job (read-only for policies).
	Job *job.Job
	// NodeIDs are the nodes the job occupies.
	NodeIDs []int
	// Exclusive reports whether the job holds whole nodes.
	Exclusive bool
	// NominalEnd is the walltime-limit end ignoring sharing inflation
	// (start + requested walltime).
	NominalEnd des.Time
	// PredictedEnd is the inflation-aware completion estimate maintained by
	// the simulator: now + remaining requested work / current progress rate.
	PredictedEnd des.Time
	// Rate is the job's current progress rate (1 when running dedicated).
	Rate float64
}

// Decision is one start action returned by a policy.
type Decision struct {
	// Job is the job to start.
	Job *job.Job
	// Placement is the exact allocation to commit.
	Placement cluster.Placement
	// Shared marks a co-allocation (the job lands on nodes that already
	// host another job).
	Shared bool
	// EstimatedRate is the policy's conservative progress-rate estimate for
	// the placement (1 for exclusive placements).
	EstimatedRate float64
}

// Context is the scheduler's view of the world at one decision point.
type Context struct {
	// Now is the current simulated time.
	Now des.Time
	// Cluster is the machine (policies must treat it as read-only).
	Cluster *cluster.Cluster
	// Queue holds pending jobs in priority order (head first).
	Queue []*job.Job
	// Running holds the running set.
	Running []*RunningJob
	// Inter is the co-run model used for pairing decisions and inflation
	// estimates.
	Inter *interference.Model
	// Share is the sharing configuration.
	Share ShareConfig
	// Topo, when set, makes placement locality-aware: idle candidates are
	// ordered compactly so jobs span as few leaf switches as possible.
	Topo *topology.Topology

	// sc is the planner's working memory (see scratch). It is created by
	// the first Schedule on this Context and reused by every later one, so
	// a long-lived Context — the engine's — plans without allocating.
	sc *scratch
}

// Policy decides which queued jobs start now.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Schedule returns start decisions in commit order. Implementations
	// must not mutate the cluster; they simulate their own commits on
	// scratch state derived from ctx.
	Schedule(ctx *Context) []Decision
}

// New constructs a policy by registry name: "fcfs", "firstfit", "easy",
// "conservative", "sharefirstfit", "sharebackfill", "shareconservative".
// The share configuration applies to the sharing policies, which refuse a
// MaxDegree below 1 with sharing on and a non-finite threshold. The baselines
// are the sharing skeletons under the zero configuration: they ignore share,
// and the Share of the Context they are handed too.
func New(name string, share ShareConfig) (Policy, error) {
	var pol Policy
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "firstfit":
		return FirstFit{}, nil
	case "easy":
		return EASY{}, nil
	case "conservative":
		return Conservative{}, nil
	case "sharefirstfit":
		pol = ShareFirstFit{Config: share}
	case "sharebackfill":
		pol = ShareBackfill{Config: share}
	case "shareconservative":
		pol = ShareConservative{Config: share}
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	switch {
	case share.Enabled && share.MaxDegree < 1:
		return nil, fmt.Errorf("sched: %s shares nodes with a MaxDegree of %d, want at least 1", name, share.MaxDegree)
	case math.IsNaN(share.MinComplementarity) || math.IsInf(share.MinComplementarity, 0) ||
		math.IsNaN(share.MinEstimatedRate) || math.IsInf(share.MinEstimatedRate, 0):
		return nil, fmt.Errorf("sched: %s needs finite sharing thresholds, got MinComplementarity %g and MinEstimatedRate %g",
			name, share.MinComplementarity, share.MinEstimatedRate)
	}
	return pol, nil
}

// Names returns the registry names of all policies, baselines first.
func Names() []string {
	return []string{
		"fcfs", "firstfit", "easy", "conservative",
		"sharefirstfit", "sharebackfill", "shareconservative",
	}
}

// predictedEnd returns the completion estimate a policy should plan with,
// honoring the inflation-accounting switch.
func predictedEnd(r *RunningJob, share ShareConfig) des.Time {
	if share.Enabled && share.InflationAccounting {
		return r.PredictedEnd
	}
	return r.NominalEnd
}

// fitsMachine reports whether the job could ever run on this machine: node
// request within the cluster and per-node memory within node capacity. The
// simulator rejects unfittable jobs at submission; policies re-check so they
// stay robust against foreign queue contents (and FCFS does not block its
// queue forever behind an impossible head).
func fitsMachine(ctx *Context, j *job.Job) bool {
	cfg := ctx.Cluster.Config()
	return j.Nodes <= cfg.Nodes && j.App.MemPerNodeMB <= cfg.MemoryPerNodeMB
}

// pickIdle returns the first n idle candidates and true, or nil and false
// when fewer than n nodes are idle. The slice is valid until the next
// idleCandidates call.
func pickIdle(ctx *Context, n int) ([]int, bool) {
	cand := idleCandidates(ctx)
	if len(cand) < n {
		return nil, false
	}
	return cand[:n], true
}

// shareCandidate is one co-allocatable node with its pairing quality.
type shareCandidate struct {
	node  int
	layer cluster.Layer // the free layer the guest would take
	score float64
	rate  float64 // estimated progress rate for the incoming job
}

// hostGroup is the co-allocatable node set of one running host job. Grouping
// matters because a parallel job runs at the rate of its slowest node: a
// guest that fully covers a host slows it uniformly and wastes nothing,
// whereas a guest sitting on a fraction of a host's nodes drags the whole
// host down while the uncovered nodes idle along. Sharing strategies
// therefore prefer whole-host coverage.
type hostGroup struct {
	host     int32   // the host job's slot
	lo, hi   int     // the group's nodes are cands[lo:hi] of the candidates it came with
	first    int     // index of the group's first node
	score    float64 // worst pairing score across the group
	rate     float64 // worst estimated guest rate across the group
	fullHost bool    // group spans every node of the host job
	taken    bool    // placeShared has consumed the group
}

// settle derives g's first node, worst score and rate, and full-host flag
// from its candidates cands[g.lo:g.hi], of a host on hostNodes nodes.
func (g *hostGroup) settle(cands []shareCandidate, hostNodes int) {
	g.score, g.rate = 1, 1
	for _, c := range cands[g.lo:g.hi] {
		if c.score < g.score {
			g.score = c.score
		}
		if c.rate < g.rate {
			g.rate = c.rate
		}
	}
	g.first = cands[g.lo].node
	g.fullHost = g.hi-g.lo == hostNodes
}

// groupOrder ranks host groups best first for a pairing-aware placement:
// full-host coverage above partial, then pairing score, then the first node.
// No two groups share a first node, so the order is total.
func groupOrder(a, b hostGroup) int {
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
}

// groupMemo is one application's host groups. groups and cands are the
// groups before the pass claims anything, valid in world epoch world; live
// and liveCands are those groups under the first claims claims of pass
// pass.
type groupMemo struct {
	world     uint64
	groups    []hostGroup
	cands     []shareCandidate
	pass      uint64
	claims    int
	live      []hostGroup
	liveCands []shareCandidate
}

// hostGroupsFor returns the co-allocation host groups for j (application
// guest) and the candidates they index, best first when pairing-aware (see
// groupOrder), in ctx.Running order of their hosts otherwise. A host node
// joins a group when this pass has not taken or barred it, it has the
// memory, and the pairing passes the configured gates.
//
// The groups depend on the job only through its application, and on the
// pass only through the claimed and barred nodes, so they are memoised per
// application: the groups before any claim follow the world the way the
// per-world state does — patched, which builds again only the groups of
// the hosts the patch touched (see patchWorld), or built from nothing after
// a rebuild — and the pass's claims and bars filter them. The groups under the pass's claims are
// kept until the next claim; bars filter into buffers of their own and
// leave the memo alone. Every answer comes back with every group untaken.
func hostGroupsFor(ctx *Context, j *job.Job, guest int32) ([]hostGroup, []shareCandidate) {
	sc := ctx.sc
	if !ctx.Share.Enabled {
		return nil, nil // no node takes a guest, and the world was not moved
	}
	for len(sc.groups) <= int(guest) {
		sc.groups = append(sc.groups, groupMemo{})
	}
	m := &sc.groups[guest]
	switch {
	case m.world == sc.world:
	case m.world != 0 && m.world == sc.patchedFrom:
		m.patch(ctx, j, guest)
	default:
		m.build(ctx, j, guest)
	}
	groups, cands := m.groups, m.cands
	if sc.claims > 0 {
		if m.pass != sc.pass || m.claims != sc.claims {
			m.pass, m.claims = sc.pass, sc.claims
			m.live, m.liveCands = filterGroups(ctx, m.groups, m.cands, sc.claimed, m.live[:0], m.liveCands[:0])
		}
		groups, cands = m.live, m.liveCands
	}
	if sc.anyBar {
		sc.barGroups, sc.barCands = filterGroups(ctx, groups, cands, sc.barred, sc.barGroups[:0], sc.barCands[:0])
		return sc.barGroups, sc.barCands
	}
	for gi := range groups {
		groups[gi].taken = false
	}
	return groups, cands
}

// build collects m's groups before any claim from nothing.
func (m *groupMemo) build(ctx *Context, j *job.Job, guest int32) {
	sc := ctx.sc
	m.world, m.pass = sc.world, 0
	m.groups, m.cands = m.groups[:0], m.cands[:0]
	for _, s := range sc.runSlot {
		m.addGroup(ctx, j, guest, s)
	}
	if ctx.Share.PairingAware {
		slices.SortFunc(m.groups, groupOrder)
	}
}

// addGroup appends the group of the host in slot s, if any of its host
// nodes qualifies.
func (m *groupMemo) addGroup(ctx *Context, j *job.Job, guest, s int32) {
	sc := ctx.sc
	hosts := sc.bySlot[s].hosts
	if len(hosts) == 0 {
		return
	}
	g := hostGroup{host: s, lo: len(m.cands)}
	// A node whose only resident is the host pairs the guest with the host
	// alone, so that pairing is evaluated once per group.
	var alone compatProfile
	for _, ni := range hosts {
		in := &sc.info[ni]
		if in.memFree < j.App.MemPerNodeMB {
			continue
		}
		var p compatProfile
		if in.class >= 0 {
			if !alone.done {
				alone = ctx.compatFor(j, guest, ni, in)
			}
			p = alone
		} else {
			p = ctx.compatFor(j, guest, ni, in)
		}
		if !p.ok {
			continue
		}
		m.cands = append(m.cands, shareCandidate{node: ni, layer: in.layer, score: p.score, rate: p.rate})
	}
	g.hi = len(m.cands)
	if g.hi == g.lo {
		return
	}
	g.settle(m.cands, len(sc.bySlot[s].nodes))
	m.groups = append(m.groups, g)
}

// patch moves m's groups from the world the current one was patched from
// to the current world: the groups of the hosts the patch touched are built
// again, the rest kept, and the candidates compacted.
func (m *groupMemo) patch(ctx *Context, j *job.Job, guest int32) {
	sc := ctx.sc
	m.world, m.pass = sc.world, 0
	cands, groups := sc.tmpCands[:0], m.groups[:0]
	for _, g := range m.groups {
		if sc.bySlot[g.host].touchedIn == sc.world {
			continue
		}
		lo := len(cands)
		cands = append(cands, m.cands[g.lo:g.hi]...)
		g.lo, g.hi = lo, len(cands)
		groups = append(groups, g)
	}
	m.groups = groups
	m.cands, sc.tmpCands = cands, m.cands
	for _, s := range sc.touched {
		if sc.bySlot[s].run != nil {
			m.addGroup(ctx, j, guest, s)
		}
	}
	if ctx.Share.PairingAware {
		slices.SortFunc(m.groups, groupOrder)
	} else {
		bySlot := sc.bySlot
		slices.SortFunc(m.groups, func(a, b hostGroup) int { return cmp.Compare(bySlot[a.host].pos, bySlot[b.host].pos) })
	}
}

// filterGroups appends to dst and dstCands the groups of src and srcCands
// with the nodes out marks taken out, in their order. Filtering the nodes
// out of a group leaves what collecting the group without them finds, in
// the same order, so the result is what a build without them would give.
func filterGroups(ctx *Context, src []hostGroup, srcCands []shareCandidate, out []bool,
	dst []hostGroup, dstCands []shareCandidate) ([]hostGroup, []shareCandidate) {
	for _, g := range src {
		f := hostGroup{host: g.host, lo: len(dstCands)}
		for _, c := range srcCands[g.lo:g.hi] {
			if !out[c.node] {
				dstCands = append(dstCands, c)
			}
		}
		f.hi = len(dstCands)
		if f.hi == f.lo {
			continue
		}
		f.settle(dstCands, len(ctx.sc.bySlot[g.host].nodes))
		dst = append(dst, f)
	}
	if ctx.Share.PairingAware {
		slices.SortFunc(dst, groupOrder)
	}
	return dst, dstCands
}

// freeLayerOn returns a fully free layer on node ni. It prefers the highest
// layer index (secondary threads) so co-allocated jobs land on SMT siblings,
// matching the paper's oversubscription mechanism.
func freeLayerOn(c *cluster.Cluster, ni int) (cluster.Layer, bool) {
	tpc := c.Config().ThreadsPerCore
	for l := tpc - 1; l >= 0; l-- {
		if c.LayerFree(ni, cluster.Layer(l)) {
			return cluster.Layer(l), true
		}
	}
	return 0, false
}
