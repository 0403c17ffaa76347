// Package sweepgrid defines one simulation run and one sweep campaign:
// Scenario.Engine (the one engine builder, shared by the SLURM-like
// controller, nodeshare-sim and the examples), Scenario.Run (the one scenario
// runner, shared by every experiment table and every sweep or fabric cell),
// the grid spec, the cell enumeration order, and the exact CSV row encoding.
// A cell is a pure function of the spec and its index, and a row's bytes come
// from one encoder wherever the cell ran, so cmd/sweep's in-process pool and
// simd daemons emit byte-identical CSV.
package sweepgrid

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scenario is the complete input of one simulation: the generated workload
// (whose Cluster is also the simulated machine), the policy, and the engine
// options. Every field but Workload and Policy may be left zero; a zero Share
// is not sched.DefaultShareConfig().
type Scenario struct {
	Workload workload.Spec
	Policy   string
	Share    sched.ShareConfig
	// Topo enables the interconnect model; LocalityAware additionally makes
	// the policies placement-locality-aware.
	Topo          *topology.Topology
	LocalityAware bool
	// SchedInterval batches scheduling onto periodic ticks; 0 = event-driven.
	SchedInterval des.Duration
	// Faults configures fault injection; the zero value runs failure-free.
	Faults fault.Config
	// StrictLimits enables walltime kills.
	StrictLimits bool
	// MeasuredPairs installs empirical co-run rates that override the
	// analytic interference model for matching two-job co-locations (see
	// interference.ParseCoRunCSV for the file format).
	MeasuredPairs []interference.MeasuredPair
	// QueueOrder, when set, builds the pending-queue comparator from the
	// engine it will order (e.g. a fairshare priority that reads the
	// engine's usage); nil is FCFS.
	QueueOrder func(*sim.Engine) func(a, b *job.Job) bool
}

// Validate checks every engine input: the machine, the policy with its share
// configuration, the fault configuration, the topology and the measured
// pairs. Of the Workload it reads only Cluster; the rest is the workload's
// own to check (workload.Spec.Validate, which Run reaches through
// workload.Generate).
func (sc Scenario) Validate() error {
	_, _, err := sc.parts()
	return err
}

// parts validates the engine inputs and builds the policy and the co-run
// model (nil is interference.Default()).
func (sc Scenario) parts() (sched.Policy, *interference.Model, error) {
	if err := sc.Workload.Cluster.Validate(); err != nil {
		return nil, nil, err
	}
	pol, err := sched.New(sc.Policy, sc.Share)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (known: %s)", err, strings.Join(sched.Names(), ", "))
	}
	if err := sc.Faults.Validate(); err != nil {
		return nil, nil, err
	}
	if sc.Topo != nil {
		if err := sc.Topo.Validate(); err != nil {
			return nil, nil, err
		}
	} else if sc.LocalityAware {
		return nil, nil, fmt.Errorf("sweepgrid: locality-aware placement needs a topology")
	}
	var inter *interference.Model
	if len(sc.MeasuredPairs) > 0 {
		inter = interference.Default()
		if err := inter.SetMeasured(sc.MeasuredPairs); err != nil {
			return nil, nil, err
		}
	}
	return pol, inter, nil
}

// Engine validates the scenario and builds an engine with QueueOrder
// installed and no jobs submitted.
func (sc Scenario) Engine() (*sim.Engine, error) {
	pol, inter, err := sc.parts()
	if err != nil {
		return nil, err
	}
	e := sim.New(sim.Config{
		Cluster: sc.Workload.Cluster, Policy: pol, Inter: inter,
		StrictLimits: sc.StrictLimits,
		Topo:         sc.Topo, LocalityAware: sc.LocalityAware,
		SchedInterval: sc.SchedInterval,
		Faults:        sc.Faults,
	})
	if sc.QueueOrder != nil {
		e.SetQueueOrder(sc.QueueOrder(e))
	}
	return e, nil
}

// Run builds the engine, generates and submits the workload, and runs it to
// completion, returning its metrics along with the finished jobs (for callers
// that slice per-job data). The result must pass metrics.Result.Validate, and
// every submitted job must be accounted for: finished + killed = submitted −
// rejected.
func (sc Scenario) Run() (metrics.Result, []*job.Job, error) {
	e, err := sc.Engine()
	if err != nil {
		return metrics.Result{}, nil, err
	}
	jobs, err := workload.Generate(sc.Workload)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	if err := e.SubmitAll(jobs); err != nil {
		return metrics.Result{}, nil, err
	}
	e.RunAll()
	r := e.Result()
	if err := r.Validate(); err != nil {
		return metrics.Result{}, nil, fmt.Errorf("sweepgrid: %s seed %d: %w", sc.Policy, sc.Workload.Seed, err)
	}
	if r.Finished+r.Killed != r.Submitted-len(e.Rejected()) {
		return metrics.Result{}, nil, fmt.Errorf("sweepgrid: %s seed %d: %d of %d jobs unaccounted",
			sc.Policy, sc.Workload.Seed, r.Submitted-r.Finished-r.Killed, r.Submitted)
	}
	return r, e.Finished(), nil
}

// Spec is a fully-described sweep grid. It marshals to JSON so a dispatcher
// can ship it to workers in the hello exchange; a worker needs nothing else
// to execute any cell.
type Spec struct {
	Policies []string  `json:"policies"`
	Loads    []float64 `json:"loads"`
	Seeds    int       `json:"seeds"`
	Nodes    int       `json:"nodes"`
	Jobs     int       `json:"jobs"`
	Mix      string    `json:"mix"`
	Scale    float64   `json:"scale"`
}

// Cell is one grid coordinate; the grid is policy-major, then load, then
// seed, matching the original sequential loop nest.
type Cell struct {
	Policy string
	Load   float64
	Seed   uint64
}

// Validate rejects a spec that could never run; workers call this before
// accepting leases so a bad spec fails loudly at hello time, not mid-grid.
// It checks the grid's shape and leaves every other rule to the scenario and
// the workload each (policy, load) pair runs, built as RunCell builds them.
func (s Spec) Validate() error {
	switch {
	case len(s.Policies) == 0:
		return fmt.Errorf("sweepgrid: no policies")
	case len(s.Loads) == 0:
		return fmt.Errorf("sweepgrid: no loads")
	case s.Seeds < 1:
		return fmt.Errorf("sweepgrid: seeds must be ≥ 1, got %d", s.Seeds)
	}
	for _, p := range s.Policies {
		for _, l := range s.Loads {
			sc, err := s.scenario(Cell{Policy: p, Load: l})
			if err != nil {
				return err
			}
			if err := sc.Validate(); err != nil {
				return err
			}
			if err := sc.Workload.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// scenario is the simulation of one cell: its own workload, machine and
// engine, built from the spec and the cell's coordinates alone.
func (s Spec) scenario(c Cell) (Scenario, error) {
	mix, err := workload.MixByName(s.Mix)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Workload: workload.Spec{
			Mix: mix, Jobs: s.Jobs, Arrival: workload.Poisson, Load: c.Load,
			Cluster: cluster.Trinity(s.Nodes), RuntimeScale: s.Scale, Seed: c.Seed,
		},
		Policy: c.Policy,
		Share:  sched.DefaultShareConfig(),
	}, nil
}

// NumCells is the grid size: |policies| × |loads| × seeds.
func (s Spec) NumCells() int {
	return len(s.Policies) * len(s.Loads) * s.Seeds
}

// CellAt maps a flat index to its grid coordinate in canonical order.
// Panics on out-of-range index — callers get indices from the grid itself.
func (s Spec) CellAt(i int) Cell {
	perPolicy := len(s.Loads) * s.Seeds
	p := i / perPolicy
	rem := i % perPolicy
	l := rem / s.Seeds
	sd := rem % s.Seeds
	return Cell{Policy: s.Policies[p], Load: s.Loads[l], Seed: uint64(42 + sd)}
}

// Header is the CSV header row, shared by every emitter.
func Header() []string {
	return []string{
		"policy", "load", "seed", "finished", "makespan_s",
		"comp_efficiency", "sched_efficiency", "utilization", "shared_fraction",
		"wait_mean_s", "wait_p95_s", "slowdown_mean", "stretch_mean",
	}
}

// RunCell executes one grid cell: an isolated simulation built entirely from
// the spec and the cell's coordinates (its own workload, cluster, and
// engine), safe to run concurrently with any other cell — in this process or
// another one.
func (s Spec) RunCell(i int) ([]string, error) {
	c := s.CellAt(i)
	sc, err := s.scenario(c)
	if err != nil {
		return nil, err
	}
	r, _, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return []string{
		c.Policy,
		fmt.Sprintf("%g", c.Load),
		fmt.Sprintf("%d", c.Seed),
		fmt.Sprintf("%d", r.Finished),
		fmt.Sprintf("%.1f", float64(r.Makespan)),
		fmt.Sprintf("%.4f", r.CompEfficiency),
		fmt.Sprintf("%.4f", r.SchedEfficiency),
		fmt.Sprintf("%.4f", r.Utilization),
		fmt.Sprintf("%.4f", r.SharedFraction),
		fmt.Sprintf("%.1f", r.Wait.Mean),
		fmt.Sprintf("%.1f", r.Wait.P95),
		fmt.Sprintf("%.3f", r.Slowdown.Mean),
		fmt.Sprintf("%.4f", r.Stretch.Mean),
	}, nil
}

// EncodeRow renders one row to the exact bytes csv.Writer would emit —
// including the trailing newline — so remotely-executed cells reassemble
// into a CSV byte-identical to the in-process path.
func EncodeRow(row []string) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(row); err != nil {
		return nil, err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RunCellBytes is the worker-side cell function: execute and encode. The
// returned bytes are the fabric payload.
func (s Spec) RunCellBytes(i int) ([]byte, error) {
	row, err := s.RunCell(i)
	if err != nil {
		return nil, err
	}
	return EncodeRow(row)
}

// Marshal renders the spec for the dispatcher's hello payload.
func (s Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// DecodeSpec parses and validates a spec received from a dispatcher.
func DecodeSpec(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("sweepgrid: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
