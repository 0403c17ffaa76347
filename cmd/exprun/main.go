// Command exprun regenerates the evaluation's tables and figures.
//
// Usage:
//
//	exprun -list                 # show the experiment registry
//	exprun                       # run every experiment
//	exprun F1 F2 T3              # run selected experiments
//	exprun -csv -out results F1  # also write results/F1.csv
//	exprun -seeds 5 -jobs 500    # heavier averaging
//	exprun -workers 4            # fan experiments across 4 cores
//
// Experiments fan out across -workers goroutines (default: all cores); each
// experiment is an isolated simulation pipeline, and tables are printed in
// registry order regardless of completion order, so the output is identical
// for any worker count.
//
// Experiment IDs, workloads, and paper-anchored expectations are indexed in
// DESIGN.md §4; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/parallel"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.Bool("csv", false, "also write CSV files (requires -out)")
	out := flag.String("out", "", "directory for CSV output")
	seeds := flag.Int("seeds", 3, "number of workload seeds to average over")
	nodes := flag.Int("nodes", 32, "machine size in nodes")
	jobs := flag.Int("jobs", 300, "jobs per run")
	scale := flag.Float64("scale", 0.05, "application runtime scale (1 = full-length runs)")
	mttr := flag.Float64("fault-mttr", 900, "F12: per-node mean time to repair in seconds")
	shape := flag.Float64("fault-shape", 1, "F12: Weibull shape of time-to-failure (1 = exponential)")
	crashProb := flag.Float64("fault-crashprob", 0.02, "F12: per-attempt job crash probability")
	workers := flag.Int("workers", 0, "parallel experiment workers (0 = all cores)")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-3s %-22s %s\n        expectation: %s\n", e.ID, e.Name, e.Title, e.Paper)
		}
		return
	}
	if *csv && *out == "" {
		fatal(fmt.Errorf("-csv requires -out"))
	}
	opts, err := options(*seeds, *nodes, *jobs, *scale, *mttr, *shape, *crashProb)
	if err != nil {
		fatal(err)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	if err := run(ids, opts, *workers, *out, os.Stdout); err != nil {
		fatal(err)
	}
}

// options builds the experiment options from the numeric flags and checks
// them before any experiment runs, so a bad flag never prints part of the
// output. exp.Options.Validate checks them as given: zero is not "use the
// default" here.
func options(seeds, nodes, jobs int, scale, mttr, shape, crashProb float64) (exp.Options, error) {
	if seeds < 1 {
		return exp.Options{}, fmt.Errorf("-seeds must be ≥ 1, got %d", seeds)
	}
	opts := exp.Options{
		Nodes:          nodes,
		Jobs:           jobs,
		RuntimeScale:   scale,
		FaultMTTR:      mttr,
		FaultShape:     shape,
		FaultCrashProb: crashProb,
	}
	for s := 0; s < seeds; s++ {
		opts.Seeds = append(opts.Seeds, uint64(42+s))
	}
	if err := opts.Validate(); err != nil {
		return exp.Options{}, err
	}
	return opts, nil
}

// rendered is one experiment's output, produced in a worker and emitted in
// registry order.
type rendered struct {
	id    string
	table []byte
	csv   []byte
}

// run executes the selected experiments across workers goroutines and
// writes their tables to out in the order requested. When csvDir is
// non-empty, each experiment's CSV is also written to csvDir/<ID>.csv.
func run(ids []string, opts exp.Options, workers int, csvDir string, out io.Writer) error {
	// Resolve IDs up front so an unknown experiment fails before any run.
	exps := make([]exp.Experiment, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			return err
		}
		exps[i] = e
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	return parallel.RunOrdered(len(exps), workers, func(i int) (rendered, error) {
		e := exps[i]
		tbl, err := e.Run(opts)
		if err != nil {
			return rendered{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			return rendered{}, err
		}
		buf.WriteByte('\n')
		r := rendered{id: e.ID, table: buf.Bytes()}
		if csvDir != "" {
			var cbuf bytes.Buffer
			if err := tbl.RenderCSV(&cbuf); err != nil {
				return rendered{}, err
			}
			r.csv = cbuf.Bytes()
		}
		return r, nil
	}, func(i int, r rendered) error {
		if _, err := out.Write(r.table); err != nil {
			return err
		}
		if csvDir != "" {
			if err := os.WriteFile(filepath.Join(csvDir, r.id+".csv"), r.csv, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exprun:", err)
	os.Exit(1)
}
