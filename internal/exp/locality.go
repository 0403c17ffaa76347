package exp

import (
	"repro/internal/report"
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
	scs := scenarios(o, len(variants), []string{"sharebackfill"}, func(i int, sc *scenario) {
		sc.Topo, sc.LocalityAware = variants[i].topo, variants[i].locality
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.CompEfficiency, r.SchedEfficiency, r.Wait.Mean, r.Stretch.Mean}
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		m := means(runs[i])
		t.Add(v.name, report.F(m[0], 3), report.F(m[1], 3), report.F(m[2], 0), report.F(m[3], 3))
	}
	t.AddNote("leaf switches of %d nodes, uplink penalty %.1f; Trinity mix",
		topo.NodesPerGroup, topo.UplinkPenalty)
	return t, nil
}
