package exp

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runF1 regenerates the headline computational-efficiency comparison: the
// canonical high-load open workload under every policy, CE relative to EASY.
func runF1(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F1 comp-efficiency — computational efficiency, Trinity mix @ load 1.4",
		"policy", "CE mean", "CE ±95%", "gain vs easy")
	ces := map[string][]float64{}
	for _, pname := range allPolicies() {
		rs, _, err := seedMean(canonicalScenario(o, pname, sched.DefaultShareConfig()), o.Seeds)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			ces[pname] = append(ces[pname], r.CompEfficiency)
		}
	}
	base := stats.Mean(ces["easy"])
	for _, pname := range allPolicies() {
		mean := stats.Mean(ces[pname])
		t.Add(pname, report.F(mean, 3), report.F(stats.CI95(ces[pname]), 3),
			report.Pct(stats.RelChange(base, mean)))
	}
	t.AddNote("paper target: sharing ≈ +19%% computational efficiency vs standard allocation")
	return t, nil
}

// runF2 regenerates the headline scheduling-efficiency comparison on a
// closed (batch) workload, where makespan is well defined.
func runF2(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F2 sched-efficiency — scheduling efficiency, closed Trinity batch",
		"policy", "SE mean", "SE ±95%", "makespan(h)", "gain vs easy")
	ses := map[string][]float64{}
	makespans := map[string][]float64{}
	for _, pname := range allPolicies() {
		rs, _, err := seedMean(closedScenario(o, pname, sched.DefaultShareConfig()), o.Seeds)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			ses[pname] = append(ses[pname], r.SchedEfficiency)
			makespans[pname] = append(makespans[pname], float64(r.Makespan)/3600)
		}
	}
	base := stats.Mean(ses["easy"])
	for _, pname := range allPolicies() {
		mean := stats.Mean(ses[pname])
		t.Add(pname, report.F(mean, 3), report.F(stats.CI95(ses[pname]), 3),
			report.F(stats.Mean(makespans[pname]), 2),
			report.Pct(stats.RelChange(base, mean)))
	}
	t.AddNote("SE = packing lower bound / makespan; values above 1 are possible under SMT sharing")
	t.AddNote("paper target: sharing ≈ +25.2%% scheduling efficiency vs standard allocation")
	return t, nil
}

// runF3 regenerates the co-allocation overhead measurement: real wall-clock
// scheduler decision latency against queue depth, exclusive vs sharing.
func runF3(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F3 overhead — scheduler decision latency (real time)",
		"queue depth", "easy", "sharebackfill", "ratio")
	depths := []int{10, 50, 100, 500, 1000}
	for _, depth := range depths {
		easyNs, err := measureDecision(o, "easy", depth)
		if err != nil {
			return nil, err
		}
		shareNs, err := measureDecision(o, "sharebackfill", depth)
		if err != nil {
			return nil, err
		}
		ratio := shareNs / easyNs
		t.Add(
			report.F(float64(depth), 0),
			report.Ns(easyNs),
			report.Ns(shareNs),
			report.F(ratio, 2),
		)
	}
	t.AddNote("median of repeated passes over a synthetic half-busy 32-node state")
	t.AddNote("paper target: no overhead from co-allocation — both policies stay sub-millisecond")
	t.AddNote("per pass with latency flat in queue depth, orders of magnitude below the")
	t.AddNote("batch system's scheduling interval")
	return t, nil
}

// measureDecision times one policy's Schedule() on a synthetic context with
// the given queue depth and returns the median latency in nanoseconds.
func measureDecision(o Options, policy string, depth int) (float64, error) {
	ctx, err := BuildOverheadContext(o, depth)
	if err != nil {
		return 0, err
	}
	pol, err := sched.New(policy, sched.DefaultShareConfig())
	if err != nil {
		return 0, err
	}
	const reps = 21
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		pol.Schedule(ctx)
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
	}
	return stats.Median(samples), nil
}

// runF4 regenerates the wait/slowdown distribution comparison across loads.
func runF4(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F4 wait-slowdown — queue wait and bounded slowdown vs load",
		"load", "policy", "wait mean(s)", "wait p95(s)", "slowdown mean", "slowdown p95")
	for _, load := range []float64{0.7, 0.9, 1.1} {
		for _, pname := range []string{"easy", "sharefirstfit", "sharebackfill"} {
			sc := canonicalScenario(o, pname, sched.DefaultShareConfig())
			sc.Workload.Load = load
			rs, _, err := seedMean(sc, o.Seeds)
			if err != nil {
				return nil, err
			}
			t.Add(
				report.F(load, 1),
				pname,
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.Wait.Mean }), 0),
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.Wait.P95 }), 0),
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.Slowdown.Mean }), 2),
				report.F(meanOf(rs, func(r metricsResult) float64 { return r.Slowdown.P95 }), 2),
			)
		}
	}
	t.AddNote("sharing absorbs queueing pressure; the gap widens as load grows")
	return t, nil
}

// runF5 regenerates the load sweep: utilization and CE per policy from an
// idle machine to deep saturation, showing where sharing starts to pay.
func runF5(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F5 load-sweep — utilization and efficiency vs offered load",
		"load", "util easy", "util share", "CE easy", "CE share", "CE gain")
	for _, load := range []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5} {
		scE := canonicalScenario(o, "easy", sched.DefaultShareConfig())
		scE.Workload.Load = load
		rsE, _, err := seedMean(scE, o.Seeds)
		if err != nil {
			return nil, err
		}
		scS := canonicalScenario(o, "sharebackfill", sched.DefaultShareConfig())
		scS.Workload.Load = load
		rsS, _, err := seedMean(scS, o.Seeds)
		if err != nil {
			return nil, err
		}
		ceE := meanOf(rsE, func(r metricsResult) float64 { return r.CompEfficiency })
		ceS := meanOf(rsS, func(r metricsResult) float64 { return r.CompEfficiency })
		t.Add(
			report.F(load, 1),
			report.F(meanOf(rsE, func(r metricsResult) float64 { return r.Utilization }), 3),
			report.F(meanOf(rsS, func(r metricsResult) float64 { return r.Utilization }), 3),
			report.F(ceE, 3),
			report.F(ceS, 3),
			report.Pct(stats.RelChange(ceE, ceS)),
		)
	}
	t.AddNote("with an under-committed machine there is nothing to share; gains appear with pressure")
	return t, nil
}

// runF6 regenerates the mix-sensitivity comparison: the sharing gain per
// workload composition.
func runF6(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F6 mix-sensitivity — sharing gain by workload mix",
		"mix", "CE easy", "CE share", "CE gain", "shared frac")
	for _, mix := range workload.Mixes() {
		scE := canonicalScenario(o, "easy", sched.DefaultShareConfig())
		scE.Workload.Mix = mix
		rsE, _, err := seedMean(scE, o.Seeds)
		if err != nil {
			return nil, err
		}
		scS := canonicalScenario(o, "sharebackfill", sched.DefaultShareConfig())
		scS.Workload.Mix = mix
		rsS, _, err := seedMean(scS, o.Seeds)
		if err != nil {
			return nil, err
		}
		ceE := meanOf(rsE, func(r metricsResult) float64 { return r.CompEfficiency })
		ceS := meanOf(rsS, func(r metricsResult) float64 { return r.CompEfficiency })
		t.Add(
			mix.Name,
			report.F(ceE, 3),
			report.F(ceS, 3),
			report.Pct(stats.RelChange(ceE, ceS)),
			report.F(meanOf(rsS, func(r metricsResult) float64 { return r.SharedFraction }), 3),
		)
	}
	t.AddNote("bandwidth/network-saturating mixes cannot share (pairings clash on the")
	t.AddNote("bottleneck); compute-leaning mixes gain through SMT pipeline slack; the")
	t.AddNote("balanced Trinity mix gains through complementary pairing")
	return t, nil
}

// runF7 regenerates the oversubscription sweep: SMT width and node memory
// sensitivity of the sharing gain.
func runF7(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("F7 oversub-sweep — SMT width and memory-capacity sensitivity",
		"threads/core", "mem/node(GB)", "CE easy", "CE share", "CE gain", "shared frac")
	type variant struct {
		tpc   int
		memGB int
	}
	variants := []variant{
		{1, 128}, // SMT off: no second layer, sharing impossible
		{2, 64},  // tight memory: most pairs do not co-fit
		{2, 128}, // the evaluated configuration
		{2, 256}, // abundant memory
	}
	for _, v := range variants {
		ccfg := cluster.Config{
			Nodes: o.Nodes, CoresPerNode: 32,
			ThreadsPerCore: v.tpc, MemoryPerNodeMB: v.memGB * 1024,
		}
		scE := canonicalScenario(o, "easy", sched.DefaultShareConfig())
		scE.Workload.Cluster = ccfg
		rsE, _, err := seedMean(scE, o.Seeds)
		if err != nil {
			return nil, err
		}
		scS := canonicalScenario(o, "sharebackfill", sched.DefaultShareConfig())
		scS.Workload.Cluster = ccfg
		rsS, _, err := seedMean(scS, o.Seeds)
		if err != nil {
			return nil, err
		}
		ceE := meanOf(rsE, func(r metricsResult) float64 { return r.CompEfficiency })
		ceS := meanOf(rsS, func(r metricsResult) float64 { return r.CompEfficiency })
		t.Add(
			report.F(float64(v.tpc), 0),
			report.F(float64(v.memGB), 0),
			report.F(ceE, 3),
			report.F(ceS, 3),
			report.Pct(stats.RelChange(ceE, ceS)),
			report.F(meanOf(rsS, func(r metricsResult) float64 { return r.SharedFraction }), 3),
		)
	}
	t.AddNote("without SMT there is no sibling layer to donate; tight memory suppresses co-allocation")
	return t, nil
}
