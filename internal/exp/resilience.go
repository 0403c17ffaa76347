package exp

import (
	"repro/internal/fault"
	"repro/internal/report"
)

// faultsAt is F12's fault configuration at one MTBF: the default retry
// policy with the options' repair time, shape and crash probability.
func (o Options) faultsAt(mtbf float64) fault.Config {
	f := fault.Defaults()
	f.MTBF, f.MTTR, f.Shape, f.CrashProb = mtbf, o.FaultMTTR, o.FaultShape, o.FaultCrashProb
	return f
}

// runF12 regenerates the resilience sweep: the canonical high-load workload
// under progressively harsher per-node failure rates (plus a small software
// crash probability), exclusive EASY backfill vs ShareBackfill. Sharing has a
// larger blast radius — one failed node kills every job co-located there —
// so the question is whether its efficiency lead survives churn. Goodput
// divides useful work by useful + lost + wasted occupancy; lost node-hours
// are discarded partial progress, charged not dropped.
func runF12(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F12 resilience — exclusive vs sharing under a failure sweep",
		"policy/MTBF", "goodput", "CE", "lost node-h", "requeues", "failed", "resched(s)")
	sweep := []struct {
		label string
		mtbf  float64
	}{
		{"none", 0},
		{"24h", 86400},
		{"6h", 21600},
		{"2h", 7200},
	}
	scs := scenarios(o, len(sweep), []string{"easy", "sharebackfill"}, func(i int, sc *scenario) {
		if sweep[i].mtbf > 0 { // the "none" level runs fully fault-free as the reference
			sc.Faults = o.faultsAt(sweep[i].mtbf)
		}
	})
	// grid seeds each fault trace from its workload seed, so the two
	// policies at one MTBF see identical node outages.
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.Goodput, r.CompEfficiency, r.LostNodeSeconds / 3600,
			float64(r.Requeues), float64(r.FailedJobs), r.MeanRescheduleSeconds}
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		m := means(runs[i])
		t.Add(sc.Policy+"/"+sweep[i/2].label, report.F(m[0], 3), report.F(m[1], 3), report.F(m[2], 1),
			report.F(m[3], 1), report.F(m[4], 1), report.F(m[5], 0))
	}
	t.AddNote("per-node MTBF sweep at MTTR %.0f s, crash prob %.2g/attempt; failure traces", o.FaultMTTR, o.FaultCrashProb)
	t.AddNote("are seed-paired across policies, so rows at one MTBF see identical node outages")
	return t, nil
}
