// Package interference converts the resource demands of co-located jobs into
// per-job progress rates.
//
// Model. Each job on a node runs one rank per core on its own hardware-thread
// layer (see internal/cluster). Its application's stress vector d states the
// fraction of each node resource the job demands. For a co-location set
// J on one node:
//
//   - Demand: D_r = Σ_{j∈J} d_j[r].
//   - Capacity: every resource has capacity 1.0 except the core pipelines,
//     which gain throughput from SMT when two layers are active: C_cpu =
//     SMTBoost (default 1.25, the commonly measured hyper-threading yield).
//   - Contention wastage: overloading a resource does not just divide it, it
//     destroys some of it (cache thrash, DRAM row-buffer interference, NIC
//     congestion). Effective capacity shrinks as
//     C_eff = C / (1 + γ_r · max(0, D_r − C)), with per-resource γ.
//   - Per-job rate: a job is slowed through the resources it actually uses.
//     For each resource, ratio_r = min(1, C_eff/D_r) and the job-specific
//     factor is 1 − d_j[r]·(1 − ratio_r); the job's progress rate is the
//     minimum factor across resources (bottleneck semantics), floored at
//     MinRate.
//
// A job alone on its node progresses at rate 1 by construction, which is the
// normalization the rest of the system builds on: requested and actual
// runtimes are dedicated-node runtimes, and sharing stretches them by the
// inverse progress rate.
//
// The shape this produces matches the paper's narrative: complementary pairs
// (compute-bound with bandwidth-bound) retain high rates for both jobs so a
// shared node outperforms two half-idle ones, while same-bottleneck pairs
// gain little or even lose throughput — which is why pairing-aware placement
// (not sharing alone) is what delivers the efficiency win.
package interference

import (
	"fmt"
	"math"

	"repro/internal/app"
)

// Params are the calibration constants of the co-run model.
type Params struct {
	// SMTBoost is the core-pipeline capacity with two active hardware
	// threads per core relative to one. 1.25 reflects the ~20–30%
	// hyper-threading throughput yield measured across HPC codes.
	SMTBoost float64
	// Wastage holds γ_r: how destructively resource r degrades when
	// oversubscribed. Cache overload (thrash) is most destructive; extra
	// CPU pressure is almost benign.
	Wastage [app.NumResources]float64
	// MinRate floors a job's progress rate so pathological overload cannot
	// stall a job forever.
	MinRate float64
}

// DefaultParams returns the calibration used throughout the evaluation.
func DefaultParams() Params {
	return Params{
		SMTBoost: 1.25,
		Wastage: [app.NumResources]float64{
			app.CPU:     0.40,
			app.MemBW:   0.30,
			app.Cache:   0.80,
			app.Network: 0.20,
		},
		MinRate: 0.05,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.SMTBoost < 1 {
		return fmt.Errorf("interference: SMTBoost %g < 1", p.SMTBoost)
	}
	for r, g := range p.Wastage {
		if g < 0 || math.IsNaN(g) {
			return fmt.Errorf("interference: wastage γ[%s] = %g", app.Resource(r), g)
		}
	}
	if p.MinRate <= 0 || p.MinRate > 1 {
		return fmt.Errorf("interference: MinRate %g outside (0,1]", p.MinRate)
	}
	return nil
}

// Model evaluates co-run progress rates under fixed parameters, optionally
// overridden by empirical pair measurements (see SetMeasured).
type Model struct {
	p        Params
	measured map[pairKey][2]float64
}

// New returns a model. It panics on invalid parameters (they are program
// constants, not user input).
func New(p Params) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{p: p}
}

// Default returns a model with DefaultParams.
func Default() *Model { return New(DefaultParams()) }

// NodeRates returns the progress rate of each co-located job, aligned with
// loads. Each load is one job's stress vector (the job occupies one
// hardware-thread layer of the node). len(loads) == 0 returns nil; a single
// load always rates 1.
func (m *Model) NodeRates(loads []app.StressVector) []float64 {
	if len(loads) == 0 {
		return nil
	}
	rates := make([]float64, len(loads))
	if len(loads) == 1 {
		rates[0] = 1
		return rates
	}

	var demand [app.NumResources]float64
	for _, d := range loads {
		addDemand(&demand, d)
	}
	ratio := m.ratios(&demand)
	for i, d := range loads {
		rates[i] = m.rateUnder(d, &ratio)
	}
	return rates
}

// addDemand adds one job's stress to the node's aggregate demand per
// resource.
func addDemand(demand *[app.NumResources]float64, d app.StressVector) {
	for r := app.Resource(0); r < app.NumResources; r++ {
		demand[r] += d[r]
	}
}

// ratios returns the per-resource throughput ratio under effective capacity
// for an aggregate demand.
func (m *Model) ratios(demand *[app.NumResources]float64) (ratio [app.NumResources]float64) {
	for r := app.Resource(0); r < app.NumResources; r++ {
		capacity := 1.0
		if r == app.CPU {
			capacity = m.p.SMTBoost
		}
		eff := capacity
		if over := demand[r] - capacity; over > 0 {
			eff = capacity / (1 + m.p.Wastage[r]*over)
		}
		if demand[r] <= eff {
			ratio[r] = 1
		} else {
			ratio[r] = eff / demand[r]
		}
	}
	return ratio
}

// rateUnder returns the progress rate of a job with stress d on a node whose
// resources deliver the given throughput ratios.
func (m *Model) rateUnder(d app.StressVector, ratio *[app.NumResources]float64) float64 {
	rate := 1.0
	for r := app.Resource(0); r < app.NumResources; r++ {
		factor := 1 - d[r]*(1-ratio[r])
		if factor < rate {
			rate = factor
		}
	}
	if rate < m.p.MinRate {
		rate = m.p.MinRate
	}
	return rate
}

// PairRates returns the progress rates of two co-located jobs.
func (m *Model) PairRates(a, b app.StressVector) (float64, float64) {
	r := m.NodeRates([]app.StressVector{a, b})
	return r[0], r[1]
}

// Throughput returns the aggregate progress rate of a co-location set — the
// node's "useful work per second" in dedicated-node-job equivalents. A value
// above 1 means sharing beats running the jobs back to back on the node.
func (m *Model) Throughput(loads []app.StressVector) float64 {
	total := 0.0
	for _, r := range m.NodeRates(loads) {
		total += r
	}
	return total
}

// PairGain returns Throughput(a, b) − 1: the useful-work surplus of one
// shared node over one dedicated node. Positive values mean co-locating the
// pair does more work per node-second than standard allocation; negative
// values mean the pair interferes badly enough that sharing loses.
func (m *Model) PairGain(a, b app.StressVector) float64 {
	return m.Throughput([]app.StressVector{a, b}) - 1
}

// CoRunMatrix returns rates[i][j] = progress rate of app i when co-located
// with app j on one node (i == j models two instances of the same app).
// This regenerates the paper's pairwise characterization table (T2).
func (m *Model) CoRunMatrix(models []app.Model) [][]float64 {
	n := len(models)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			ri, _ := m.PairRates(models[i].Stress, models[j].Stress)
			out[i][j] = ri
		}
	}
	return out
}
