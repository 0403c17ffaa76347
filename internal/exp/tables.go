package exp

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/interference"
	"repro/internal/report"
	"repro/internal/stats"
)

// runT1 regenerates the mini-app characterization table.
func runT1(o Options) (*report.Table, error) {
	t := report.New("T1 app-catalogue — Trinity mini-app characterization",
		"app", "cpu", "membw", "cache", "net", "bottleneck", "mem/node(GB)", "mean runtime", "typical nodes")
	for _, m := range app.Catalogue() {
		t.Add(
			m.Name,
			report.F(m.Stress[app.CPU], 2),
			report.F(m.Stress[app.MemBW], 2),
			report.F(m.Stress[app.Cache], 2),
			report.F(m.Stress[app.Network], 2),
			m.Bottleneck().String(),
			fmt.Sprintf("%d", m.MemPerNodeMB/1024),
			fmt.Sprintf("%.1fh", m.MeanRuntime/3600),
			fmt.Sprintf("%v", m.TypicalNodes),
		)
	}
	t.AddNote("stress components in [0,1] at one rank per core on a dedicated node")
	return t, nil
}

// runT2 regenerates the pairwise co-run matrix: the row app's progress rate
// when co-located with the column app, plus the pair throughput gain.
func runT2(o Options) (*report.Table, error) {
	models := app.Catalogue()
	inter := interference.Default()
	cols := []string{"app \\ co-runner"}
	for _, m := range models {
		cols = append(cols, m.Name)
	}
	t := report.New("T2 corun-matrix — progress rate of row app beside column app", cols...)
	mat := inter.CoRunMatrix(models)
	for i, m := range models {
		row := []string{m.Name}
		for j := range models {
			row = append(row, report.F(mat[i][j], 2))
		}
		t.Add(row...)
	}
	// Summary: best and worst pairings by throughput gain.
	bestGain, worstGain := -2.0, 2.0
	var bestPair, worstPair string
	for i, a := range models {
		for j, b := range models {
			if j < i {
				continue
			}
			g := inter.PairGain(a.Stress, b.Stress)
			if g > bestGain {
				bestGain, bestPair = g, a.Name+"+"+b.Name
			}
			if g < worstGain {
				worstGain, worstPair = g, a.Name+"+"+b.Name
			}
		}
	}
	t.AddNote("best pair %s (%s node throughput), worst pair %s (%s)",
		bestPair, report.Pct(bestGain), worstPair, report.Pct(worstGain))
	return t, nil
}

// runT3 regenerates the full per-strategy summary on the canonical scenario.
func runT3(o Options) (*report.Table, error) {
	o = o.withDefaults()
	t := report.New("T3 strategy-summary — canonical Trinity scenario (load 1.4, 32 nodes)",
		"policy", "CE", "SE", "util", "shared", "makespan(h)", "wait mean(s)", "slowdown mean", "stretch mean")
	pols := allPolicies()
	runs, err := grid(o, scenarios(o, 1, pols, nil), func(r run) []float64 {
		return []float64{r.CompEfficiency, r.SchedEfficiency, r.Utilization, r.SharedFraction,
			float64(r.Makespan) / 3600, r.Wait.Mean, r.Slowdown.Mean, r.Stretch.Mean}
	})
	if err != nil {
		return nil, err
	}
	ms := map[string][]float64{}
	for i, pname := range pols {
		m := means(runs[i])
		ms[pname] = m
		t.Add(pname, report.F(m[0], 3), report.F(m[1], 3), report.F(m[2], 3), report.F(m[3], 3),
			report.F(m[4], 2), report.F(m[5], 0), report.F(m[6], 2), report.F(m[7], 3))
	}
	t.AddNote("sharebackfill vs easy: CE %s, SE %s (paper: +19%% CE, +25.2%% SE)",
		report.Pct(stats.RelChange(ms["easy"][0], ms["sharebackfill"][0])),
		report.Pct(stats.RelChange(ms["easy"][1], ms["sharebackfill"][1])))
	return t, nil
}
