package exp

import (
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// runE1 regenerates the energy comparison: the same closed workload under
// every policy, with machine energy derived from the occupancy integrals via
// the three-level node power model. Sharing finishes the same work in fewer
// node-hours, so it wins on energy despite the extra draw of oversubscribed
// nodes.
func runE1(o Options) (*report.Table, error) {
	o = o.withDefaults()
	p := energy.DefaultParams()
	t := report.New("E1 energy — machine energy for one closed Trinity batch",
		"policy", "energy(kWh)", "J/work", "avg power(kW)", "vs easy")
	type agg struct{ kwh, jpw, power []float64 }
	results := map[string]*agg{}
	for _, pname := range allPolicies() {
		rs, _, err := seedMean(closedScenario(o, pname, sched.DefaultShareConfig()), o.Seeds)
		if err != nil {
			return nil, err
		}
		a := &agg{}
		for _, r := range rs {
			rep, err := energy.Compute(p, r)
			if err != nil {
				return nil, err
			}
			a.kwh = append(a.kwh, rep.KWh())
			a.jpw = append(a.jpw, rep.JoulesPerWork)
			a.power = append(a.power, rep.AvgPowerW/1000)
		}
		results[pname] = a
	}
	base := stats.Mean(results["easy"].kwh)
	for _, pname := range allPolicies() {
		a := results[pname]
		t.Add(
			pname,
			report.F(stats.Mean(a.kwh), 1),
			report.F(stats.Mean(a.jpw), 1),
			report.F(stats.Mean(a.power), 2),
			report.Pct(stats.RelChange(base, stats.Mean(a.kwh))),
		)
	}
	t.AddNote("node power model: %g W idle + %g W active + %g W when SMT-shared",
		p.IdleW, p.ActiveW, p.SharedW)
	t.AddNote("same delivered work per run; sharing trades higher instantaneous draw for")
	t.AddNote("fewer node-hours")
	return t, nil
}
