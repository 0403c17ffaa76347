package exp

import (
	"repro/internal/report"
	"repro/internal/stats"
)

// runA1 ablates the pairing-aware candidate ranking: with it off, guests
// land on hosts in node order regardless of stress-vector fit.
func runA1(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A1 ablation-pairing — interference-aware pairing vs arbitrary",
		"variant", "CE", "SE", "stretch mean", "shared frac")
	variants := []struct {
		name       string
		pairing    bool
		complement bool
	}{
		{"pairing-aware (default)", true, true},
		{"arbitrary order", false, true},
		{"arbitrary + no threshold", false, false},
	}
	scs := scenarios(o, len(variants), []string{"sharebackfill"}, func(i int, sc *scenario) {
		sc.Share.PairingAware = variants[i].pairing
		if !variants[i].complement {
			sc.Share.MinComplementarity = 0
		}
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.CompEfficiency, r.SchedEfficiency, r.Stretch.Mean, r.SharedFraction}
	})
	if err != nil {
		return nil, err
	}
	ces := make([]float64, len(variants))
	for i, v := range variants {
		m := means(runs[i])
		ces[i] = m[0]
		t.Add(v.name, report.F(m[0], 3), report.F(m[1], 3), report.F(m[2], 3), report.F(m[3], 3))
	}
	t.AddNote("pairing quality is the mechanism: default vs fully arbitrary CE delta %s",
		report.Pct(stats.RelChange(ces[len(ces)-1], ces[0])))
	return t, nil
}

// runA2 ablates the walltime-inflation accounting inside ShareBackfill: with
// it off, reservations are planned with nominal ends, so co-allocations can
// postpone the releases the queue head's reservation depends on.
func runA2(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A2 ablation-inflation — reservation accounting on vs off",
		"variant", "CE", "wait mean(s)", "wait p95(s)", "big-job wait mean(s)")
	variants := []struct {
		name string
		on   bool
	}{
		{"accounting on (default)", true},
		{"accounting off", false},
	}
	scs := scenarios(o, len(variants), []string{"sharebackfill"}, func(i int, sc *scenario) {
		sc.Share.InflationAccounting = variants[i].on
	})
	// A run's last two columns are its big-job wait mean and big-job count.
	runs, err := grid(o, scs, func(r run) []float64 {
		// Big jobs (top node-count quartile) are the ones EASY reservations
		// exist to protect.
		big, n := 0.0, 0
		for _, j := range r.finished {
			if j.Nodes >= 8 {
				big += float64(j.WaitTime())
				n++
			}
		}
		return []float64{r.CompEfficiency, r.Wait.Mean, r.Wait.P95, big / float64(n), float64(n)}
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		m := means(runs[i])
		t.Add(v.name, report.F(m[0], 3), report.F(m[1], 0), report.F(m[2], 0), report.F(meanWhere(runs[i], 3, 4), 0))
	}
	t.AddNote("without accounting, co-allocation silently delays the reserved queue head;")
	t.AddNote("large reserved jobs absorb the damage (their wait grows)")
	return t, nil
}

// runA3 ablates placement preference: sharing first vs exhausting idle nodes
// first.
func runA3(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A3 ablation-prefershared — share-first vs idle-first placement",
		"variant", "CE", "SE", "util", "shared frac", "stretch mean")
	variants := []struct {
		name   string
		prefer bool
	}{
		{"share-first (default)", true},
		{"idle-first", false},
	}
	scs := scenarios(o, len(variants), []string{"sharebackfill"}, func(i int, sc *scenario) {
		sc.Share.PreferShared = variants[i].prefer
	})
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.CompEfficiency, r.SchedEfficiency, r.Utilization, r.SharedFraction, r.Stretch.Mean}
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		m := means(runs[i])
		t.Add(v.name, report.F(m[0], 3), report.F(m[1], 3), report.F(m[2], 3), report.F(m[3], 3), report.F(m[4], 3))
	}
	t.AddNote("share-first converts idle SMT capacity into throughput, at some per-job stretch")
	return t, nil
}

// runA4 ablates walltime-limit extension: the paper's SLURM integration must
// stretch a job's limit by the slowdown the system itself imposed via
// co-allocation. With strict (unextended) limits, stretched jobs get killed
// at their requested walltime and their occupancy is wasted.
func runA4(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A4 ablation-limits — walltime limit extension vs strict enforcement",
		"variant", "policy", "CE", "killed", "wasted node-h", "work lost")
	names := []string{"extended limits (default)", "strict limits"}
	scs := scenarios(o, len(names), []string{"easy", "sharebackfill"}, func(i int, sc *scenario) {
		sc.StrictLimits = i == 1
	})
	// A run's last two columns are its killed share and submitted count.
	runs, err := grid(o, scs, func(r run) []float64 {
		return []float64{r.CompEfficiency, float64(r.Killed), r.WastedNodeSeconds / 3600,
			float64(r.Killed) / float64(r.Submitted), float64(r.Submitted)}
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		m := means(runs[i])
		t.Add(names[i/2], sc.Policy, report.F(m[0], 3), report.F(m[1], 1), report.F(m[2], 1),
			report.Pct(meanWhere(runs[i], 3, 4)))
	}
	t.AddNote("exclusive policies never kill (users overestimate walltimes and nothing")
	t.AddNote("slows their jobs); sharing under strict limits kills the jobs it stretched —")
	t.AddNote("the reason the paper's SLURM integration extends limits by the inflation factor")
	return t, nil
}

// meanWhere averages column k of one scenario's runs over the seeds whose
// column n is positive: a per-run mean over n items is undefined when the
// run had none, and is left out rather than counted as 0.
func meanWhere(runs [][]float64, k, n int) float64 {
	var xs []float64
	for _, r := range runs {
		if r[n] > 0 {
			xs = append(xs, r[k])
		}
	}
	return stats.Mean(xs)
}
