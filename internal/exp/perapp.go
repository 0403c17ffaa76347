package exp

import (
	"sort"

	"repro/internal/report"
	"repro/internal/stats"
)

// runT4 regenerates the per-application breakdown: who pays the sharing
// stretch and who gains the wait reduction, app by app. Bandwidth-bound apps
// co-locate with compute-bound partners, so the compute apps absorb most of
// the stretch while everyone's queueing collapses.
func runT4(o Options) (*report.Table, error) {
	o = o.withDefaults()
	// appRun is one app's finished jobs in one run, kept as the values T4
	// averages.
	type appRun struct {
		waits, stretches []float64
		shared           int
	}
	runs, err := grid(o, scenarios(o, 1, []string{"easy", "sharebackfill"}, nil), func(r run) map[string]*appRun {
		byApp := map[string]*appRun{}
		for _, j := range r.finished {
			a := byApp[j.App.Name]
			if a == nil {
				a = &appRun{}
				byApp[j.App.Name] = a
			}
			a.waits = append(a.waits, float64(j.WaitTime()))
			a.stretches = append(a.stretches, j.Stretch())
			if j.EverShared() {
				a.shared++
			}
		}
		return byApp
	})
	if err != nil {
		return nil, err
	}
	// Each app's values are concatenated in seed order, as one list per
	// policy across every run.
	type appAgg struct {
		waitsEasy, waitsShare []float64
		stretches             []float64
		shared                int
	}
	agg := map[string]*appAgg{}
	for p, policyRuns := range runs {
		for _, byApp := range policyRuns {
			for name, r := range byApp {
				a := agg[name]
				if a == nil {
					a = &appAgg{}
					agg[name] = a
				}
				if p == 0 {
					a.waitsEasy = append(a.waitsEasy, r.waits...)
					continue
				}
				a.waitsShare = append(a.waitsShare, r.waits...)
				a.stretches = append(a.stretches, r.stretches...)
				a.shared += r.shared
			}
		}
	}

	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)

	t := report.New("T4 per-app — who pays the stretch, who gains the wait (sharebackfill vs easy)",
		"app", "jobs", "shared", "stretch mean", "wait easy(s)", "wait share(s)", "wait change")
	for _, n := range names {
		a := agg[n]
		we, ws := stats.Mean(a.waitsEasy), stats.Mean(a.waitsShare)
		change := "n/a"
		if we > 0 {
			change = report.Pct(stats.RelChange(we, ws))
		}
		total := len(a.waitsShare)
		sharedFrac := 0.0
		if total > 0 {
			sharedFrac = float64(a.shared) / float64(total)
		}
		t.Add(
			n,
			report.F(float64(total), 0),
			report.F(sharedFrac, 2),
			report.F(stats.Mean(a.stretches), 3),
			report.F(we, 0),
			report.F(ws, 0),
			change,
		)
	}
	t.AddNote("every app's wait falls under sharing; the stretch is the price, paid most by")
	t.AddNote("the apps that co-locate most")
	return t, nil
}
