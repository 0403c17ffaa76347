package exp

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/stats"
)

// powerModel is the per-node power model in watts — the standard three-level
// node model of HPC energy studies: an idle floor (fans, DIMM refresh,
// uncore) drawn by every provisioned node always, an active increment when a
// job runs, and a smaller increment when a second job runs on the SMT
// sibling threads (the cores are already powered; oversubscription mostly
// raises switching activity).
type powerModel struct {
	idleW, activeW, sharedW float64
}

// trinityPower approximates a Trinity-class dual-socket node: ~90 W idle,
// ~260 W additional under load, ~40 W more with both hardware threads busy.
var trinityPower = powerModel{idleW: 90, activeW: 260, sharedW: 40}

// energyReport is the energy accounting of one run.
type energyReport struct {
	// totalJoules is machine energy over the run's makespan; idleJoules,
	// activeJoules and sharedJoules decompose it.
	totalJoules, idleJoules, activeJoules, sharedJoules float64
	// joulesPerWork is energy per delivered node-second of useful work — the
	// figure of merit for sharing (lower is better).
	joulesPerWork float64
	// avgPowerW is the machine's average draw over the makespan.
	avgPowerW float64
}

// kWh converts the total to kilowatt-hours.
func (r energyReport) kWh() float64 { return r.totalJoules / 3.6e6 }

// energyOf derives the energy report from a run's metrics:
//
//	idle:   Nodes × makespan × idleW        (provisioned nodes always draw)
//	active: busy node-seconds × activeW
//	shared: shared node-seconds × sharedW
//
// The result is exact given the engine's occupancy integrals; no re-run is
// needed. This is the "benefits" side of node sharing that the efficiency
// metrics alone do not show: packing two jobs onto one node's SMT threads
// powers one node instead of two, at a small extra draw for the second
// hardware-thread layer.
func energyOf(p powerModel, r metrics.Result) energyReport {
	makespan := float64(r.Makespan)
	rep := energyReport{
		idleJoules:   float64(r.Nodes) * makespan * p.idleW,
		activeJoules: r.BusyNodeSeconds * p.activeW,
		sharedJoules: r.SharedNodeSeconds * p.sharedW,
	}
	rep.totalJoules = rep.idleJoules + rep.activeJoules + rep.sharedJoules
	if r.TotalDemand > 0 {
		rep.joulesPerWork = rep.totalJoules / r.TotalDemand
	}
	if makespan > 0 {
		rep.avgPowerW = rep.totalJoules / makespan
	}
	return rep
}

// runE1 regenerates the energy comparison: the same closed workload under
// every policy, with machine energy derived from the occupancy integrals via
// the three-level node power model. Sharing finishes the same work in fewer
// node-hours, so it wins on energy despite the extra draw of oversubscribed
// nodes.
func runE1(o Options) (*report.Table, error) {
	o = o.withDefaults()
	p := trinityPower
	t := report.New("E1 energy — machine energy for one closed Trinity batch",
		"policy", "energy(kWh)", "J/work", "avg power(kW)", "vs easy")
	pols := allPolicies()
	runs, err := grid(o, scenarios(o, 1, pols, closed(o)), func(r run) []float64 {
		rep := energyOf(p, r.Result)
		return []float64{rep.kWh(), rep.joulesPerWork, rep.avgPowerW / 1000}
	})
	if err != nil {
		return nil, err
	}
	base := means(runs[slices.Index(pols, "easy")])[0]
	for i, pname := range pols {
		m := means(runs[i])
		t.Add(pname, report.F(m[0], 1), report.F(m[1], 1), report.F(m[2], 2),
			report.Pct(stats.RelChange(base, m[0])))
	}
	t.AddNote("node power model: %g W idle + %g W active + %g W when SMT-shared",
		p.idleW, p.activeW, p.sharedW)
	t.AddNote("same delivered work per run; sharing trades higher instantaneous draw for")
	t.AddNote("fewer node-hours")
	return t, nil
}
