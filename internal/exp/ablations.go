package exp

import (
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// runA1 ablates the pairing-aware candidate ranking: with it off, guests
// land on hosts in node order regardless of stress-vector fit.
func runA1(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A1 ablation-pairing — interference-aware pairing vs arbitrary",
		"variant", "CE", "SE", "stretch mean", "shared frac")
	variants := []struct {
		name string
		mut  func(*sched.ShareConfig)
	}{
		{"pairing-aware (default)", func(c *sched.ShareConfig) {}},
		{"arbitrary order", func(c *sched.ShareConfig) { c.PairingAware = false }},
		{"arbitrary + no threshold", func(c *sched.ShareConfig) {
			c.PairingAware = false
			c.MinComplementarity = 0
		}},
	}
	var defaultCE, worstCE float64
	for i, v := range variants {
		cfg := sched.DefaultShareConfig()
		v.mut(&cfg)
		rs, _, err := seedMean(canonicalScenario(o, "sharebackfill", cfg), o.Seeds)
		if err != nil {
			return nil, err
		}
		ce := meanOf(rs, func(r metricsResult) float64 { return r.CompEfficiency })
		if i == 0 {
			defaultCE = ce
		}
		if i == len(variants)-1 {
			worstCE = ce
		}
		t.Add(
			v.name,
			report.F(ce, 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.SchedEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Stretch.Mean }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.SharedFraction }), 3),
		)
	}
	t.AddNote("pairing quality is the mechanism: default vs fully arbitrary CE delta %s",
		report.Pct(stats.RelChange(worstCE, defaultCE)))
	return t, nil
}

// runA2 ablates the walltime-inflation accounting inside ShareBackfill: with
// it off, reservations are planned with nominal ends, so co-allocations can
// postpone the releases the queue head's reservation depends on.
func runA2(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("A2 ablation-inflation — reservation accounting on vs off",
		"variant", "CE", "wait mean(s)", "wait p95(s)", "big-job wait mean(s)")
	for _, v := range []struct {
		name string
		on   bool
	}{
		{"accounting on (default)", true},
		{"accounting off", false},
	} {
		cfg := sched.DefaultShareConfig()
		cfg.InflationAccounting = v.on
		rs, finished, err := seedMean(canonicalScenario(o, "sharebackfill", cfg), o.Seeds)
		if err != nil {
			return nil, err
		}
		var bigWaits []float64
		for _, jobs := range finished {
			// Big jobs (top node-count quartile) are the ones EASY
			// reservations exist to protect.
			big := 0.0
			n := 0
			for _, j := range jobs {
				if j.Nodes >= 8 {
					big += float64(j.WaitTime())
					n++
				}
			}
			if n > 0 {
				bigWaits = append(bigWaits, big/float64(n))
			}
		}
		t.Add(
			v.name,
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.CompEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Wait.Mean }), 0),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Wait.P95 }), 0),
			report.F(stats.Mean(bigWaits), 0),
		)
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
	for _, v := range []struct {
		name   string
		prefer bool
	}{
		{"share-first (default)", true},
		{"idle-first", false},
	} {
		cfg := sched.DefaultShareConfig()
		cfg.PreferShared = v.prefer
		rs, _, err := seedMean(canonicalScenario(o, "sharebackfill", cfg), o.Seeds)
		if err != nil {
			return nil, err
		}
		t.Add(
			v.name,
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.CompEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.SchedEfficiency }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Utilization }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.SharedFraction }), 3),
			report.F(meanOf(rs, func(r metricsResult) float64 { return r.Stretch.Mean }), 3),
		)
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
	for _, v := range []struct {
		name   string
		strict bool
	}{
		{"extended limits (default)", false},
		{"strict limits", true},
	} {
		for _, pname := range []string{"easy", "sharebackfill"} {
			sc := canonicalScenario(o, pname, sched.DefaultShareConfig())
			sc.StrictLimits = v.strict
			rs, _, err := seedMean(sc, o.Seeds)
			if err != nil {
				return nil, err
			}
			var lost []float64
			for _, r := range rs {
				if r.Submitted > 0 {
					lost = append(lost, float64(r.Killed)/float64(r.Submitted))
				}
			}
			t.Add(
				v.name,
				pname,
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.CompEfficiency }), 3),
				report.F(meanOf(rs, func(r metricsResult) float64 { return float64(r.Killed) }), 1),
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.WastedNodeSeconds / 3600 }), 1),
				report.Pct(stats.Mean(lost)),
			)
		}
	}
	t.AddNote("exclusive policies never kill (users overestimate walltimes and nothing")
	t.AddNote("slows their jobs); sharing under strict limits kills the jobs it stretched —")
	t.AddNote("the reason the paper's SLURM integration extends limits by the inflation factor")
	return t, nil
}
