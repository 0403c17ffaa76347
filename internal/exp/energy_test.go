package exp

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

func TestEnergyDecomposition(t *testing.T) {
	p := powerModel{idleW: 100, activeW: 200, sharedW: 50}
	r := metrics.Result{
		Nodes:             4,
		Makespan:          1000,
		BusyNodeSeconds:   2000,
		SharedNodeSeconds: 500,
		TotalDemand:       2500,
	}
	rep := energyOf(p, r)
	if rep.idleJoules != 4*1000*100 {
		t.Fatalf("idle = %g", rep.idleJoules)
	}
	if rep.activeJoules != 2000*200 {
		t.Fatalf("active = %g", rep.activeJoules)
	}
	if rep.sharedJoules != 500*50 {
		t.Fatalf("shared = %g", rep.sharedJoules)
	}
	want := 400000.0 + 400000 + 25000
	if rep.totalJoules != want {
		t.Fatalf("total = %g, want %g", rep.totalJoules, want)
	}
	if math.Abs(rep.joulesPerWork-want/2500) > 1e-9 {
		t.Fatalf("J/work = %g", rep.joulesPerWork)
	}
	if math.Abs(rep.avgPowerW-want/1000) > 1e-9 {
		t.Fatalf("avg power = %g", rep.avgPowerW)
	}
	if math.Abs(rep.kWh()-want/3.6e6) > 1e-12 {
		t.Fatalf("kWh = %g", rep.kWh())
	}
}

func TestEnergyEmptyRun(t *testing.T) {
	rep := energyOf(trinityPower, metrics.Result{Nodes: 8})
	if rep.totalJoules != 0 || rep.joulesPerWork != 0 || rep.avgPowerW != 0 {
		t.Fatalf("empty run report = %+v", rep)
	}
}

// The economics that justify sharing: packing the same work into fewer
// node-hours lowers energy per work even though shared nodes draw more.
func TestSharingLowersEnergyPerWork(t *testing.T) {
	// Exclusive: 2 jobs × 1000s on 2 nodes of a 2-node machine.
	exclusive := metrics.Result{
		Nodes: 2, Makespan: 1000, BusyNodeSeconds: 2000, TotalDemand: 2000,
	}
	// Shared: both jobs on one node at rate 0.8 → 1250s makespan, one busy
	// node, same delivered work.
	shared := metrics.Result{
		Nodes: 2, Makespan: 1250, BusyNodeSeconds: 1250,
		SharedNodeSeconds: 1250, TotalDemand: 2000,
	}
	re, rs := energyOf(trinityPower, exclusive), energyOf(trinityPower, shared)
	if rs.joulesPerWork >= re.joulesPerWork {
		t.Fatalf("sharing J/work %g not below exclusive %g",
			rs.joulesPerWork, re.joulesPerWork)
	}
}
