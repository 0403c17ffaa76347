package exp

import (
	"sort"

	"repro/internal/job"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// runT4 regenerates the per-application breakdown: who pays the sharing
// stretch and who gains the wait reduction, app by app. Bandwidth-bound apps
// co-locate with compute-bound partners, so the compute apps absorb most of
// the stretch while everyone's queueing collapses.
func runT4(o Options) (*report.Table, error) {
	o = o.withDefaults()
	type appAgg struct {
		waitsEasy, waitsShare []float64
		stretches             []float64
		shared, total         int
	}
	agg := map[string]*appAgg{}
	get := func(name string) *appAgg {
		a := agg[name]
		if a == nil {
			a = &appAgg{}
			agg[name] = a
		}
		return a
	}
	collect := func(policy string, into func(a *appAgg, j *job.Job)) error {
		_, finished, err := seedMean(canonicalScenario(o, policy, sched.DefaultShareConfig()), o.Seeds)
		if err != nil {
			return err
		}
		for _, jobs := range finished {
			for _, j := range jobs {
				into(get(j.App.Name), j)
			}
		}
		return nil
	}
	if err := collect("easy", func(a *appAgg, j *job.Job) {
		a.waitsEasy = append(a.waitsEasy, float64(j.WaitTime()))
	}); err != nil {
		return nil, err
	}
	if err := collect("sharebackfill", func(a *appAgg, j *job.Job) {
		a.waitsShare = append(a.waitsShare, float64(j.WaitTime()))
		a.stretches = append(a.stretches, j.Stretch())
		a.total++
		if j.EverShared() {
			a.shared++
		}
	}); err != nil {
		return nil, err
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
		sharedFrac := 0.0
		if a.total > 0 {
			sharedFrac = float64(a.shared) / float64(a.total)
		}
		t.Add(
			n,
			report.F(float64(a.total), 0),
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
