package repro

// The benchmark harness: one benchmark per table and figure of the
// evaluation (DESIGN.md §4) plus the ablations (§5) and the micro-benchmarks
// benchmark/micro.go does not already time. Each table/figure benchmark regenerates its experiment
// end to end through the simulator and reports the experiment's headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweepgrid"
	"repro/internal/workload"
)

// benchOpts keeps one experiment iteration around a hundred milliseconds
// while preserving the workload shape; the exprun CLI runs the full-size
// versions.
func benchOpts() exp.Options {
	return exp.Options{Seeds: []uint64{42}, Nodes: 32, Jobs: 150, RuntimeScale: 0.02, FaultCrashProb: 0.02}
}

// runExperiment drives one registry entry b.N times and reports metric
// (extracted from the named column of the named row) as a custom benchmark
// metric.
func runExperiment(b *testing.B, id, rowKey, column, metricName string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if metricName == "" {
		return
	}
	v, ok := cellValue(tbl, rowKey, column)
	if !ok {
		b.Fatalf("%s: no cell (%q, %q) in:\n%s", id, rowKey, column, tbl)
	}
	b.ReportMetric(v, metricName)
}

// cellValue finds the row whose first cell equals rowKey and parses the
// named column as a float (tolerating %-suffixed cells).
func cellValue(t *report.Table, rowKey, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, row := range t.Rows {
		if len(row) > col && row[0] == rowKey {
			s := strings.TrimSuffix(strings.TrimSpace(row[col]), "%")
			v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// --- Tables ---

func BenchmarkTableT1AppCatalogue(b *testing.B) {
	runExperiment(b, "T1", "", "", "")
}

func BenchmarkTableT2CorunMatrix(b *testing.B) {
	runExperiment(b, "T2", "", "", "")
}

func BenchmarkTableT3StrategySummary(b *testing.B) {
	runExperiment(b, "T3", "sharebackfill", "CE", "CE")
}

// --- Figures ---

func BenchmarkFigureF1CompEfficiency(b *testing.B) {
	// Headline 1: computational efficiency of sharing (paper: ≈ +19%).
	runExperiment(b, "F1", "sharebackfill", "CE mean", "CE")
}

func BenchmarkFigureF2SchedEfficiency(b *testing.B) {
	// Headline 2: scheduling efficiency of sharing (paper: ≈ +25.2%).
	runExperiment(b, "F2", "sharebackfill", "SE mean", "SE")
}

func BenchmarkFigureF3Overhead(b *testing.B) {
	runExperiment(b, "F3", "", "", "")
}

func BenchmarkFigureF4WaitSlowdown(b *testing.B) {
	runExperiment(b, "F4", "", "", "")
}

func BenchmarkFigureF5LoadSweep(b *testing.B) {
	runExperiment(b, "F5", "", "", "")
}

func BenchmarkFigureF6MixSensitivity(b *testing.B) {
	runExperiment(b, "F6", "trinity", "CE share", "CE")
}

func BenchmarkFigureF7OversubSweep(b *testing.B) {
	runExperiment(b, "F7", "", "", "")
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationPairing(b *testing.B) {
	runExperiment(b, "A1", "pairing-aware (default)", "CE", "CE")
}

func BenchmarkAblationInflation(b *testing.B) {
	runExperiment(b, "A2", "accounting on (default)", "CE", "CE")
}

func BenchmarkAblationPreferShared(b *testing.B) {
	runExperiment(b, "A3", "share-first (default)", "CE", "CE")
}

func BenchmarkAblationLimits(b *testing.B) {
	runExperiment(b, "A4", "", "", "")
}

func BenchmarkFigureF8Fairness(b *testing.B) {
	runExperiment(b, "F8", "", "", "")
}

func BenchmarkTableE1Energy(b *testing.B) {
	runExperiment(b, "E1", "sharebackfill", "energy(kWh)", "kWh")
}

func BenchmarkFigureF9WalltimeAccuracy(b *testing.B) {
	runExperiment(b, "F9", "", "", "")
}

func BenchmarkFigureF10Locality(b *testing.B) {
	runExperiment(b, "F10", "", "", "")
}

func BenchmarkFigureF11SchedInterval(b *testing.B) {
	runExperiment(b, "F11", "", "", "")
}

func BenchmarkFigureF12Resilience(b *testing.B) {
	// Goodput of sharing under a 6-hour per-node MTBF with job crashes.
	runExperiment(b, "F12", "sharebackfill/6h", "goodput", "goodput")
}

func BenchmarkTableT4PerApp(b *testing.B) {
	runExperiment(b, "T4", "", "", "")
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkSchedulerPass measures one policy decision pass on a realistic
// mid-run state (the F3 latency experiment's inner loop), and per policy on
// the deep state an overloaded sweep cell spends its time in.
func BenchmarkSchedulerPass(b *testing.B) {
	for _, policy := range []string{"easy", "conservative", "sharefirstfit", "sharebackfill"} {
		states := []struct {
			name  string
			build func() (*sched.Context, error)
		}{
			{policy, func() (*sched.Context, error) { return exp.BuildOverheadContext(exp.Options{}, 200) }},
			{policy + "_deep", deepQueueContext},
		}
		for _, st := range states {
			b.Run(st.name, func(b *testing.B) {
				ctx, err := st.build()
				if err != nil {
					b.Fatal(err)
				}
				pol, err := sched.New(policy, sched.DefaultShareConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol.Schedule(ctx)
				}
			})
		}
	}
}

// deepQueueContext is a 32-node machine with 2 nodes idle, 30 running
// one-node jobs that end a minute apart, and 500 queued jobs of 1–8 nodes:
// load ≈ 1.4 long after the queue built up.
func deepQueueContext() (*sched.Context, error) {
	c := cluster.New(cluster.Trinity(32))
	cat := app.Catalogue()
	var running []*sched.RunningJob
	id := cluster.JobID(0)
	for ni := 0; ni < c.Size()-2; ni++ {
		id++
		a := cat[ni%len(cat)]
		j := &job.Job{ID: id, Name: "run", App: a, Nodes: 1, ReqWalltime: 7200, TrueRuntime: 3600}
		if err := c.Allocate(c.ExclusivePlacement(id, []int{ni}, a.MemPerNodeMB)); err != nil {
			return nil, err
		}
		j.Start(0)
		end := des.Time(3600 + 60*ni)
		running = append(running, &sched.RunningJob{
			Job: j, NodeIDs: []int{ni}, Exclusive: true, NominalEnd: end, PredictedEnd: end, Rate: 1,
		})
	}
	var queue []*job.Job
	for i := 0; i < 500; i++ {
		id++
		queue = append(queue, &job.Job{
			ID: id, Name: "q", App: cat[(i*3+1)%len(cat)],
			Nodes:       1 + (i+2)%8,
			ReqWalltime: des.Duration(1800 + 300*(i%10)),
			TrueRuntime: des.Duration(900 + 150*(i%10)),
			Submit:      des.Time(i),
		})
	}
	return &sched.Context{
		Now: 501, Cluster: c, Queue: queue, Running: running,
		Inter: interference.Default(), Share: sched.DefaultShareConfig(),
	}, nil
}

// BenchmarkEngineThroughput measures full simulation speed in jobs/second of
// real time — the number that makes parameter sweeps cheap.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, policy := range []string{"easy", "sharebackfill"} {
		b.Run(policy, func(b *testing.B) {
			machine := cluster.Trinity(32)
			const jobCount = 200
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				jobs, err := workload.Generate(workload.Spec{
					Mix: workload.TrinityMix(), Jobs: jobCount,
					Arrival: workload.Poisson, Load: 1.2,
					Cluster: machine, RuntimeScale: 0.02, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				pol, err := sched.New(policy, sched.DefaultShareConfig())
				if err != nil {
					b.Fatal(err)
				}
				e := sim.New(sim.Config{Cluster: machine, Policy: pol})
				if err := e.SubmitAll(jobs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e.RunAll()
			}
			b.ReportMetric(float64(jobCount)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSweepGrid measures experiment-grid throughput in cells/second —
// the quantity that decides how much statistical power a parameter sweep
// can afford — on the path cmd/sweep takes: sweepgrid cells through the
// parallel runner. Three policies × two loads × two seeds, 150 jobs on 32
// Trinity nodes: the CLI's shape, small enough to sample repeatedly.
// workers=1 is the sequential baseline; workers=4 shows the runner's scaling
// on multicore hosts.
func BenchmarkSweepGrid(b *testing.B) {
	g := sweepgrid.Spec{
		Policies: []string{"easy", "sharefirstfit", "sharebackfill"},
		Loads:    []float64{0.9, 1.4},
		Seeds:    2, Nodes: 32, Jobs: 150, Mix: "trinity", Scale: 0.05,
	}
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(g.NumCells(), workers, g.RunCell); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumCells()*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkJobProgressIntegration measures the rate-change path (SetRate +
// completion reprojection) that fires on every co-location change.
func BenchmarkJobProgressIntegration(b *testing.B) {
	a := app.Catalogue()[0]
	j := &job.Job{ID: 1, App: a, Nodes: 1, ReqWalltime: 1e12, TrueRuntime: 1e12, Submit: 0}
	j.Start(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := des.Time(i + 1)
		j.SetRate(t, 0.5+0.4*float64(i%2))
		j.ETA(t)
	}
}
