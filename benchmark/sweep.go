package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/des"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/sweepgrid"
)

// The paper's headline gains of node sharing over standard allocation, printed
// beside the model's own so its error is visible.
const (
	paperCEGainPct = 19.0
	paperSEGainPct = 25.2
)

// sweepLoad is the product path of `sweep -workers N`: parallel.RunOrdered
// over sweepgrid.Spec.RunCellBytes, all four planners, CSV encoding, and
// concurrent engines sharing one allocator and collector.
type sweepLoad struct{}

type sweepInstance struct {
	cfg  *runConfig
	spec sweepgrid.Spec
}

// drawLoads picks the grid's two loads from the seed: one just under
// saturation, one well over it.
func drawLoads(seed uint64) []float64 {
	rng := des.NewRNG(seed)
	round := func(v float64) float64 { return math.Round(v*1000) / 1000 }
	return []float64{round(rng.Uniform(0.85, 0.95)), round(rng.Uniform(1.35, 1.45))}
}

func (sweepLoad) setUp(cfg *runConfig, res *result, traced bool) (instance, error) {
	spec := sweepgrid.Spec{
		Policies: gridPolicies, Loads: drawLoads(cfg.seed), Seeds: 3,
		Nodes: 32, Jobs: 2000, Mix: "trinity", Scale: 0.05,
	}
	if cfg.short {
		spec.Policies, spec.Seeds, spec.Jobs = []string{"easy", "sharebackfill"}, 1, 200
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &sweepInstance{cfg: cfg, spec: spec}, nil
}

func (s *sweepInstance) close() {}

// sweepPass is what one pass over the grid measured.
type sweepPass struct {
	wall, consume time.Duration
	cells         []time.Duration
	csv           []byte
}

func (s *sweepInstance) pass(tr *tracer, rep, workers int) (sweepPass, error) {
	n := s.spec.NumCells()
	out := sweepPass{cells: make([]time.Duration, n)}
	var buf bytes.Buffer

	root := tr.start(0, rep, "parallel.run_ordered")
	start := time.Now()
	err := parallel.RunOrdered(n, workers,
		func(i int) ([]byte, error) {
			sp := tr.start(root.id, rep, "sweepgrid.cell")
			t0 := time.Now()
			row, err := s.spec.RunCellBytes(i)
			out.cells[i] = time.Since(t0)
			sp.end(map[string]float64{"cell": float64(i)})
			return row, err
		},
		func(i int, row []byte) error {
			// consume runs on this goroutine only.
			t0 := time.Now()
			_, err := buf.Write(row)
			out.consume += time.Since(t0)
			return err
		})
	out.wall = time.Since(start)
	root.end(map[string]float64{"cells": float64(n), "workers": float64(workers)})
	out.csv = buf.Bytes()
	return out, err
}

func csvDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *sweepInstance) measure(d time.Duration, tr *tracer, res *result) error {
	n := s.spec.NumCells()
	workers := s.cfg.threads

	// One untimed warm-up pass. On a traced run it uses one worker, which
	// also gives the single-worker wall time parallel.speedup_vs_1 needs.
	warmWorkers := workers
	if tr != nil {
		warmWorkers = 1
	}
	warm, err := s.pass(nil, 0, warmWorkers)
	if err != nil {
		return err
	}
	res.digest, res.pinned = csvDigest(warm.csv), true

	minReps := 2
	var passes []sweepPass
	start := time.Now()
	for rep := 1; rep <= minReps || time.Since(start) < d; rep++ {
		p, err := s.pass(tr, rep, workers)
		if err != nil {
			return err
		}
		if s.cfg.inject == "corrupt-csv" && rep == 1 {
			p.csv[len(p.csv)/2] ^= 0x01
		}
		bad := 0
		if rows := bytes.Count(p.csv, []byte("\n")); rows != n {
			bad = n
			res.problem("pass %d: %d CSV rows, want %d", rep, rows, n)
		} else if got := csvDigest(p.csv); got != res.digest {
			bad = n
			res.problem("pass %d: CSV digest %s differs from the warm-up's %s", rep, got, res.digest)
		}
		res.ops(n, bad)
		passes = append(passes, p)
		if s.cfg.short && rep >= minReps {
			break
		}
	}

	walls := make([]time.Duration, len(passes))
	for i, p := range passes {
		walls[i] = p.wall
	}
	res.throughput("sweep_cells_per_s", float64(n), walls)
	if err := s.modelGains(warm.csv, res); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}

	med := func(f func(sweepPass) float64) float64 { return medianOf(passes, f) }
	sum := func(ds []time.Duration) float64 {
		t := 0.0
		for _, d := range ds {
			t += d.Seconds()
		}
		return t
	}
	res.set("sweepgrid.cell_s_p50", med(func(p sweepPass) float64 { return stats.Median(seconds(p.cells)) }))
	res.set("sweepgrid.cell_s_max", med(func(p sweepPass) float64 { return stats.Percentile(seconds(p.cells), 100) }))
	res.set("sweepgrid.cell_s_sum", med(func(p sweepPass) float64 { return sum(p.cells) }))
	res.set("parallel.wall_s", med(func(p sweepPass) float64 { return p.wall.Seconds() }))
	res.set("parallel.consume_s", med(func(p sweepPass) float64 { return p.consume.Seconds() }))
	res.set("parallel.worker_busy_ratio", med(func(p sweepPass) float64 {
		return sum(p.cells) / (float64(workers) * p.wall.Seconds())
	}))
	res.set("parallel.speedup_vs_1", warm.wall.Seconds()/med(func(p sweepPass) float64 { return p.wall.Seconds() }))
	res.note("parallel.speedup_vs_1", "one-worker pass %.3f s, %d workers on %d processors", warm.wall.Seconds(), workers, s.cfg.threads)
	return nil
}

// modelGains reads the sharing gains out of the CSV the sweep produced: mean
// computational and scheduling efficiency of sharebackfill over easy, across
// every load and seed of the grid.
func (s *sweepInstance) modelGains(data []byte, res *result) error {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("sweep CSV: %w", err)
	}
	col := map[string]int{}
	for i, name := range sweepgrid.Header() {
		col[name] = i
	}
	mean := func(policy, column string) (float64, error) {
		var xs []float64
		for _, row := range rows {
			if row[col["policy"]] != policy {
				continue
			}
			v, err := strconv.ParseFloat(row[col[column]], 64)
			if err != nil {
				return 0, err
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return 0, fmt.Errorf("sweep CSV has no %s rows", policy)
		}
		return stats.Mean(xs), nil
	}
	for _, g := range []struct {
		metric, column string
		paper          float64
	}{
		{"model.ce_gain_pct", "comp_efficiency", paperCEGainPct},
		{"model.se_gain_pct", "sched_efficiency", paperSEGainPct},
	} {
		share, err := mean("sharebackfill", g.column)
		if err != nil {
			return err
		}
		easy, err := mean("easy", g.column)
		if err != nil {
			return err
		}
		gain := (share/easy - 1) * 100
		res.set(g.metric, gain)
		res.note(g.metric, "paper %+.1f %%; model error %+.1f points", g.paper, gain-g.paper)
	}
	return nil
}
