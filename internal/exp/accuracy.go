package exp

import (
	"fmt"

	"repro/internal/report"
)

// runF9 regenerates the walltime-accuracy sweep: the classic backfill result
// that better user estimates improve scheduling, measured here for both the
// exclusive and the sharing backfill. Each row bounds the uniform
// overestimation factor users apply to their requests.
func runF9(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F9 walltime-accuracy — effect of user overestimation on backfill",
		"overestimate", "policy", "wait mean(s)", "slowdown mean", "CE", "SE")
	ranges := []struct{ lo, hi float64 }{
		{1.05, 1.2}, // near-perfect estimates
		{1.2, 2.0},  // good
		{1.5, 3.0},  // the default habit
		{2.0, 5.0},  // wild guesses
	}
	scs := scenarios(o, len(ranges), []string{"easy", "sharebackfill"}, func(i int, sc *scenario) {
		sc.Workload.OverestimateMin, sc.Workload.OverestimateMax = ranges[i].lo, ranges[i].hi
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.Wait.Mean, r.Slowdown.Mean, r.CompEfficiency, r.SchedEfficiency}
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		m := means(runs[i])
		t.Add(fmt.Sprintf("%.2f–%.2f×", sc.Workload.OverestimateMin, sc.Workload.OverestimateMax), sc.Policy,
			report.F(m[0], 0), report.F(m[1], 2), report.F(m[2], 3), report.F(m[3], 3))
	}
	t.AddNote("EASY exhibits the classic overestimation paradox: padded requests finish")
	t.AddNote("early and open backfill holes, so waits improve with WORSE estimates;")
	t.AddNote("sharing dominates across the whole range and is far less estimate-sensitive")
	t.AddNote("because co-allocation consumes no reserved whole-node capacity")
	return t, nil
}
