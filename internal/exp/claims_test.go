package exp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestPaperClaims pins the paper's two quantitative claims as this
// reproduction converges on them: ShareBackfill's gain over EASY in
// computational efficiency (F1, paper +19 %) and in scheduling efficiency
// (F2, paper +25.2 %), on the EXPERIMENTS.md configuration (32 Trinity
// nodes, Trinity mix, 300 jobs, runtimes at 5 %) over the 30 seeds 42…71.
//
// The runs are deterministic, so the gate is not about noise: it holds every
// planner and model change to the recorded gain. The tolerance is the 95 %
// confidence half-width of the per-seed paired gains (1.96 · sd / √30) —
// what 30 seeds can tell apart: 1.27 pp for F1 (sd 3.5 pp) and 2.11 pp for F2
// (sd 5.9 pp) when recorded. A change may move a gain within it; a move of
// 3 pp must fail, so the test also fails if the spread grows until it would
// not.
func TestPaperClaims(t *testing.T) {
	const maxTolerance = 3.0 // pp: a move this large must never pass
	var seeds []uint64
	for s := uint64(42); s < 72; s++ {
		seeds = append(seeds, s)
	}
	o := Options{Seeds: seeds}.withDefaults()
	claims := []struct {
		id, metric string
		paper, pin float64 // gain vs easy, %
		vary       func(int, *scenario)
		value      func(run) float64
	}{
		{"F1", "computational efficiency", 19, 17.26, nil,
			func(r run) float64 { return r.CompEfficiency }},
		{"F2", "scheduling efficiency", 25.2, 27.80, closed(o),
			func(r run) float64 { return r.SchedEfficiency }},
	}
	for _, c := range claims {
		runs, err := grid(o, scenarios(o, 1, []string{"easy", "sharebackfill"}, c.vary), c.value)
		if err != nil {
			t.Fatal(err)
		}
		easy, share := runs[0], runs[1]
		paired := make([]float64, len(seeds))
		for i := range seeds {
			paired[i] = 100 * stats.RelChange(easy[i], share[i])
		}
		gain := 100 * stats.RelChange(stats.Mean(easy), stats.Mean(share))
		tol := stats.CI95(paired)
		t.Logf("%s %s: sharebackfill %+.2f %% vs easy (pinned %+.2f ± %.2f pp; paper %+.1f %%, %+.1f pp off)",
			c.id, c.metric, gain, c.pin, tol, c.paper, gain-c.paper)
		if tol >= maxTolerance {
			t.Errorf("%s: the per-seed spread gives a tolerance of %.2f pp; a %.0f pp move would pass", c.id, tol, maxTolerance)
		}
		if math.Abs(gain-c.pin) > tol {
			t.Errorf("%s: sharebackfill gains %+.2f %% %s over easy, pinned at %+.2f ± %.2f pp",
				c.id, gain, c.metric, c.pin, tol)
		}
	}
}
