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
// A policy is a pure decision procedure: it inspects a Context (queue,
// running set, cluster, interference model) and returns the list of jobs to
// start now together with their placements. The simulator owns all state
// mutation, which keeps every policy trivially testable.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// ShareConfig tunes the sharing-capable policies. The zero value disables
// sharing entirely (the policy degrades to its exclusive ancestor).
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
// The share configuration applies to the sharing policies and is ignored by
// the baselines.
func New(name string, share ShareConfig) (Policy, error) {
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
		return ShareFirstFit{Config: share}, nil
	case "sharebackfill":
		return ShareBackfill{Config: share}, nil
	case "shareconservative":
		return ShareConservative{Config: share}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
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
	lo, hi   int     // the group's nodes are cands[lo:hi] of its groupMemo
	first    int     // index of the group's first node
	score    float64 // worst pairing score across the group
	rate     float64 // worst estimated guest rate across the group
	fullHost bool    // group spans every node of the host job
	taken    bool    // placeShared has consumed the group
}

// groupMemo is one application's host groups and their candidates, as
// hostGroupsFor found them at generation gen of the pass.
type groupMemo struct {
	gen    uint64
	groups []hostGroup
	cands  []shareCandidate
}

// hostGroupsFor returns the co-allocation host groups for j (application
// guest) and the candidates they index, best first when pairing-aware:
// full-host coverage ranks above partial, then pairing score, then the
// group's first node for determinism. A host node joins a group when this
// pass has not taken or barred it, it has the memory, and the pairing passes
// the configured gates.
//
// The groups depend on the job only through its application, and on the
// pass only through the claimed and barred nodes, so they are memoised per
// application until the next claim, bar or unbar; a reused memo comes back
// with every group untaken.
func hostGroupsFor(ctx *Context, j *job.Job, guest int32) ([]hostGroup, []shareCandidate) {
	sc := ctx.sc
	if !ctx.Share.Enabled {
		return nil, nil
	}
	for len(sc.groups) <= int(guest) {
		sc.groups = append(sc.groups, groupMemo{})
	}
	m := &sc.groups[guest]
	if m.gen == sc.gen {
		for gi := range m.groups {
			m.groups[gi].taken = false
		}
		return m.groups, m.cands
	}
	m.gen = sc.gen
	m.groups, m.cands = m.groups[:0], m.cands[:0]
	for i, r := range ctx.Running {
		g := hostGroup{lo: len(m.cands), score: 1, rate: 1}
		// A node whose only resident is r pairs the guest with r alone, so
		// that pairing is evaluated once per group.
		var alone compatProfile
		for _, ni := range sc.hostNodes[sc.hostOff[i]:sc.hostOff[i+1]] {
			in := &sc.info[ni]
			if sc.excluded(ni) || in.memFree < j.App.MemPerNodeMB {
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
			if p.score < g.score {
				g.score = p.score
			}
			if p.rate < g.rate {
				g.rate = p.rate
			}
		}
		g.hi = len(m.cands)
		if g.hi == g.lo {
			continue
		}
		g.first = m.cands[g.lo].node
		g.fullHost = g.hi-g.lo == len(r.NodeIDs)
		m.groups = append(m.groups, g)
	}
	if ctx.Share.PairingAware {
		slices.SortStableFunc(m.groups, func(a, b hostGroup) int {
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
	return m.groups, m.cands
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
