package exp

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/stats"
)

// runF8 regenerates the fairness comparison: a Zipf-skewed multi-user
// workload (user01 floods the queue) under node sharing, scheduled FCFS vs
// with the fairshare priority factor. Fairshare protects the light users'
// waits from the heavy user's backlog without hurting efficiency.
func runF8(o Options) (*report.Table, error) {
	o = o.withDefaults()
	const users = 6

	t := report.New("F8 fairness — multi-user waits under FCFS vs fairshare priority",
		"ordering", "CE", "wait mean(s)", "heavy-user wait(s)", "light-users wait(s)", "heavy/light")
	variants := []struct {
		name      string
		fairshare bool
	}{
		{"fcfs order", false},
		{"fairshare priority", true},
	}
	scs := scenarios(o, len(variants), []string{"sharebackfill"}, func(i int, sc *scenario) {
		sc.Workload.Users = users
		if variants[i].fairshare {
			prio := slurm.DefaultPriorityConfig()
			prio.WeightFairshare = 5000 // dominate age so the effect is visible
			sc.QueueOrder = prio.QueueOrder(o.Nodes)
		}
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		byUser := map[string][]float64{}
		for _, j := range r.finished {
			byUser[j.User] = append(byUser[j.User], float64(j.WaitTime()))
		}
		var lightWaits []float64
		for u := 2; u <= users; u++ {
			lightWaits = append(lightWaits, byUser[fmt.Sprintf("user%02d", u)]...)
		}
		return []float64{r.CompEfficiency, r.Wait.Mean, stats.Mean(byUser["user01"]), stats.Mean(lightWaits)}
	})
	if err != nil {
		return nil, err
	}
	for i, variant := range variants {
		m := means(runs[i])
		heavy, light := m[2], m[3]
		ratio := 0.0
		if light > 0 {
			ratio = heavy / light
		}
		t.Add(variant.name, report.F(m[0], 3), report.F(m[1], 0), report.F(heavy, 0), report.F(light, 0), report.F(ratio, 2))
	}
	t.AddNote("user01 submits the most jobs (Zipf weights); fairshare pushes the flood behind")
	t.AddNote("light users' jobs, cutting their waits sharply at a small efficiency cost")
	t.AddNote("(priority reordering constrains pairing choices)")
	return t, nil
}
