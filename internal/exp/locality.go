package exp

import (
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/topology"
)

// runF10 regenerates the topology/locality comparison: the canonical
// Trinity workload under node sharing, with the interconnect model off
// (transparent network), on with naive placement, and on with
// locality-aware placement. Scattered allocations raise the effective
// network demand of communication-heavy jobs, which poisons co-run
// pairings (lower CE) and lengthens queues; compact placement recovers
// the queueing cost.
func runF10(o Options) (*report.Table, error) {
	o = o.withDefaults()
	topo := topology.Default(o.Nodes)
	t := report.New("F10 locality — interconnect model and locality-aware placement",
		"variant", "CE", "SE", "wait mean(s)", "stretch mean")
	variants := []struct {
		name     string
		topo     *topology.Topology
		locality bool
	}{
		{"no interconnect model", nil, false},
		{"topology, naive placement", &topo, false},
		{"topology, locality-aware", &topo, true},
	}
	for _, v := range variants {
		sc := canonicalScenario(o, "sharebackfill", sched.DefaultShareConfig())
		sc.Topo = v.topo
		sc.LocalityAware = v.locality
		rs, _, err := seedMean(sc, o.Seeds)
		if err != nil {
			return nil, err
		}
		t.Add(
			v.name,
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.CompEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.SchedEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Wait.Mean }), 0),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Stretch.Mean }), 3),
		)
	}
	t.AddNote("leaf switches of %d nodes, uplink penalty %.1f; Trinity mix",
		topo.NodesPerGroup, topo.UplinkPenalty)
	return t, nil
}
