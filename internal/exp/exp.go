// Package exp is the experiment registry: one entry per table and figure of
// the evaluation, each regenerating its rows from scratch through the
// simulator. The per-experiment index in DESIGN.md maps experiment IDs to
// the modules they exercise; EXPERIMENTS.md records paper-vs-measured.
package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

// Options tune experiment execution. The zero value is completed by
// withDefaults: 32 Trinity nodes, 3 seeds, runtimes scaled to 5% of the
// catalogue values (hours → minutes) so the full suite runs in seconds
// without changing workload shape.
type Options struct {
	// Seeds are the workload seeds to average over.
	Seeds []uint64
	// Nodes is the machine size.
	Nodes int
	// Jobs is the per-run job count (experiments may scale it).
	Jobs int
	// RuntimeScale multiplies application runtimes (see workload.Spec).
	RuntimeScale float64
	// FaultMTTR, FaultShape, and FaultCrashProb parameterize the F12
	// resilience sweep (which varies MTBF itself). Zero MTTR and shape
	// default to a 900 s repair time and exponential failures; a zero crash
	// probability is zero: jobs never crash.
	FaultMTTR      float64
	FaultShape     float64
	FaultCrashProb float64
}

// Validate checks the options as given, before withDefaults fills a zero:
// the canonical workload at these nodes, jobs and runtime scale, and the
// fault configuration F12 runs at every MTBF of its sweep. The seeds are the
// caller's to supply.
func (o Options) Validate() error {
	sc := canonicalScenario(o, "easy", sched.DefaultShareConfig())
	sc.Faults = o.faultsAt(86400)
	if err := sc.Validate(); err != nil {
		return err
	}
	return sc.Workload.Validate()
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{42, 43, 44}
	}
	if o.Nodes == 0 {
		o.Nodes = 32
	}
	if o.Jobs == 0 {
		o.Jobs = 300
	}
	if o.RuntimeScale == 0 {
		o.RuntimeScale = 0.05
	}
	if o.FaultMTTR == 0 {
		o.FaultMTTR = 900
	}
	if o.FaultShape == 0 {
		o.FaultShape = 1
	}
	return o
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the index key, e.g. "F1".
	ID string
	// Name is the DESIGN.md slug, e.g. "comp-efficiency".
	Name string
	// Title describes what the experiment shows.
	Title string
	// Paper states the paper-anchored expectation for the result's shape.
	Paper string
	// Run regenerates the table.
	Run func(Options) (*report.Table, error)
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "app-catalogue", "Trinity mini-app characterization",
			"the mini-apps span compute-, bandwidth-, cache- and network-bound profiles", runT1},
		{"T2", "corun-matrix", "pairwise co-run progress rates and throughput gains",
			"complementary pairs gain, same-bottleneck pairs do not", runT2},
		{"F1", "comp-efficiency", "computational efficiency under high load",
			"sharing strategies ≈ +19% over standard allocation", runF1},
		{"F2", "sched-efficiency", "scheduling efficiency on a closed workload",
			"sharing strategies ≈ +25.2% over standard allocation", runF2},
		{"F3", "overhead", "scheduler decision latency vs queue depth",
			"no overhead from co-allocation", runF3},
		{"F4", "wait-slowdown", "queue wait and bounded slowdown across loads",
			"sharing cuts waits, most at high load", runF4},
		{"F5", "load-sweep", "utilization and efficiency vs offered load",
			"sharing gains grow with load; negligible when the machine is idle", runF5},
		{"F6", "mix-sensitivity", "sharing gain by workload mix",
			"bandwidth-saturating mixes gain nothing; compute-leaning and balanced mixes gain", runF6},
		{"F7", "oversub-sweep", "SMT width and memory-capacity sensitivity",
			"no SMT ⇒ no sharing; tight memory suppresses co-allocation", runF7},
		{"T3", "strategy-summary", "full per-strategy summary on the canonical scenario",
			"ShareBackfill ≥ ShareFirstFit > exclusive baselines on both efficiencies", runT3},
		{"A1", "ablation-pairing", "pairing-aware vs arbitrary co-allocation",
			"interference-aware pairing is what makes sharing profitable", runA1},
		{"A2", "ablation-inflation", "walltime-inflation accounting on vs off",
			"without accounting, co-allocation delays large reserved jobs", runA2},
		{"A3", "ablation-prefershared", "share-first vs idle-first placement",
			"share-first raises efficiency at modest stretch cost", runA3},
		{"A4", "ablation-limits", "walltime limit extension vs strict enforcement",
			"strict limits kill stretched co-located jobs and waste their occupancy", runA4},
		{"E1", "energy", "machine energy for a fixed batch of work",
			"sharing lowers total energy and energy per work despite higher node draw", runE1},
		{"F8", "fairness", "multi-user wait dispersion, FCFS vs fairshare priority",
			"fairshare shields light users from a heavy user's backlog at no efficiency cost", runF8},
		{"F9", "walltime-accuracy", "effect of user walltime overestimation on backfill",
			"EASY shows the overestimation paradox; sharing dominates and is estimate-insensitive", runF9},
		{"F10", "locality", "interconnect topology and locality-aware placement",
			"scattered allocations raise network contention; compact placement recovers the loss", runF10},
		{"F11", "sched-interval", "periodic vs event-driven scheduling passes",
			"the sharing gain survives SLURM-scale backfill intervals", runF11},
		{"F12", "resilience", "exclusive vs sharing under node failures and job crashes",
			"sharing keeps its efficiency lead under churn despite larger co-location blast radius", runF12},
		{"T4", "per-app", "per-application stretch and wait breakdown",
			"all apps gain wait; co-locating apps pay the stretch", runT4},
	}
}

// ByID looks up an experiment by ID (case-sensitive, e.g. "F1").
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// seedMean is the one seed fan-out: it runs the scenario once per seed and
// returns the per-seed results and finished jobs in seed order. A fault
// configuration is reseeded from the workload seed, so averaging covers
// failure traces as well as arrival patterns while every policy at one seed
// sees the same trace (a paired comparison). Seeds fan out across all cores:
// each run is an isolated simulation (its own workload RNG stream, cluster,
// policy, and engine), and results are reassembled in seed order — never
// completion order — so the output is bit-identical to a sequential loop.
func seedMean(sc sweepgrid.Scenario, seeds []uint64) ([]metrics.Result, [][]*job.Job, error) {
	finished := make([][]*job.Job, len(seeds))
	rs, err := parallel.Run(len(seeds), 0, func(i int) (metrics.Result, error) {
		s := sc
		s.Workload.Seed, s.Faults.Seed = seeds[i], seeds[i]
		r, jobs, err := s.Run()
		finished[i] = jobs
		return r, err
	})
	if err != nil {
		return nil, nil, err
	}
	return rs, finished, nil
}

// meanOf extracts a mean over per-seed results.
func meanOf(rs []metrics.Result, f func(metrics.Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

// canonicalScenario is the evaluation's standard high-load open workload
// (F1, T3, ablations): Trinity mix on 32 Trinity nodes at offered load 1.4.
func canonicalScenario(o Options, policy string, share sched.ShareConfig) sweepgrid.Scenario {
	return sweepgrid.Scenario{
		Workload: workload.Spec{
			Mix:          workload.TrinityMix(),
			Jobs:         o.Jobs,
			Arrival:      workload.Poisson,
			Load:         1.4,
			Cluster:      cluster.Trinity(o.Nodes),
			RuntimeScale: o.RuntimeScale,
		},
		Policy: policy,
		Share:  share,
	}
}

// closedScenario is the makespan experiment's batch workload (F2).
func closedScenario(o Options, policy string, share sched.ShareConfig) sweepgrid.Scenario {
	sc := canonicalScenario(o, policy, share)
	sc.Workload.Arrival = workload.Batch
	sc.Workload.Load = 0
	sc.Workload.Jobs = o.Jobs * 2 / 3
	return sc
}

// baselinePolicies and sharingPolicies order the comparison rows.
var (
	baselinePolicies = []string{"fcfs", "firstfit", "easy", "conservative"}
	sharingPolicies  = []string{"sharefirstfit", "sharebackfill", "shareconservative"}
)

// allPolicies returns baselines followed by sharing strategies.
func allPolicies() []string {
	out := append([]string{}, baselinePolicies...)
	return append(out, sharingPolicies...)
}

// metricsResult shortens closure signatures in the experiment files.
type metricsResult = metrics.Result
