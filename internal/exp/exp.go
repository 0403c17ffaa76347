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
	"repro/internal/stats"
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
	// Workers bounds the simulations an experiment runs at once (0 = all
	// cores). Results do not depend on it.
	Workers int
}

// Validate checks the options as given, before withDefaults fills a zero:
// the worker count, the canonical workload at these nodes, jobs and runtime
// scale, and the fault configuration F12 runs at every MTBF of its sweep.
// The seeds are the caller's to supply.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("exp: workers must be ≥ 0 (0 = all cores), got %d", o.Workers)
	}
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

// scenario shortens the experiment files' scenario lists.
type scenario = sweepgrid.Scenario

// run is one simulation of a grid: a scenario's result at one seed, and its
// finished jobs.
type run struct {
	metrics.Result
	finished []*job.Job
}

// grid is the one fan-out of the experiments: every scenario runs once per
// seed of o, all in one parallel.Run over o.Workers in scenario-major order,
// and out[i][s] is scenario i at o.Seeds[s]. A run's fault configuration is
// reseeded from its workload seed, so averaging covers failure traces as
// well as arrival patterns while every scenario at one seed sees the same
// trace (a paired comparison). keep reduces each run inside its worker, so a run's finished
// jobs are gone once it has been reduced. Each run is an isolated simulation
// (its own workload RNG stream, cluster, policy, and engine), and results are
// reassembled in index order — never completion order — so the output is
// bit-identical to a sequential loop.
func grid[T any](o Options, scs []scenario, keep func(run) T) ([][]T, error) {
	n := len(o.Seeds)
	flat, err := parallel.Run(len(scs)*n, o.Workers, func(i int) (T, error) {
		sc := scs[i/n]
		sc.Workload.Seed, sc.Faults.Seed = o.Seeds[i%n], o.Seeds[i%n]
		r, finished, err := sc.Run()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("exp: scenario %d (%s) at seed %d: %w", i/n, sc.Policy, sc.Workload.Seed, err)
		}
		return keep(run{r, finished}), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(scs))
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out, nil
}

// column is the per-seed series of column k of one scenario's runs.
func column(runs [][]float64, k int) []float64 {
	out := make([]float64, len(runs))
	for s, r := range runs {
		out[s] = r[k]
	}
	return out
}

// means averages each column of one scenario's runs over its seeds, summed
// in seed order.
func means(runs [][]float64) []float64 {
	out := make([]float64, len(runs[0]))
	for k := range out {
		out[k] = stats.Mean(column(runs, k))
	}
	return out
}

// scenarios lists an experiment's scenarios, variant-major: the canonical
// scenario under each policy, changed by vary(i, sc) for each variant i < n
// (vary may be nil).
func scenarios(o Options, n int, policies []string, vary func(i int, sc *scenario)) []scenario {
	var out []scenario
	for i := 0; i < n; i++ {
		for _, p := range policies {
			sc := canonicalScenario(o, p, sched.DefaultShareConfig())
			if vary != nil {
				vary(i, &sc)
			}
			out = append(out, sc)
		}
	}
	return out
}

// canonicalScenario is the evaluation's standard high-load open workload
// (F1, T3, ablations): Trinity mix on 32 Trinity nodes at offered load 1.4.
func canonicalScenario(o Options, policy string, share sched.ShareConfig) scenario {
	return scenario{
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

// closed makes a scenario the makespan experiments' batch workload (F2, E1).
func closed(o Options) func(int, *scenario) {
	return func(_ int, sc *scenario) {
		sc.Workload.Arrival, sc.Workload.Load, sc.Workload.Jobs = workload.Batch, 0, o.Jobs*2/3
	}
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
