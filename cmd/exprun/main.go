// Command exprun regenerates the evaluation's tables and figures.
//
// Usage:
//
//	exprun -list                 # show the experiment registry
//	exprun                       # run every experiment
//	exprun F1 F2 T3              # run selected experiments
//	exprun -csv -out results F1  # also write results/F1.csv
//	exprun -seeds 5 -jobs 500    # heavier averaging
//	exprun -workers 4            # run 4 simulations at a time
//
// Experiments run one after another, in the order requested; each fans its
// simulations out across -workers goroutines (default: all cores). Every
// simulation is isolated and results are gathered in index order, never
// completion order, so the output is identical for any worker count.
//
// Experiment IDs, workloads, and paper-anchored expectations are indexed in
// DESIGN.md §4; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "exprun:", err)
		os.Exit(1)
	}
}

// maxSeeds bounds -seeds, which is checked before the seed list is built:
// every seed is a simulation per policy per experiment, so a thousand is
// already hours of work.
const maxSeeds = 1000

// run parses args and writes the tables of the experiments they name (all,
// by default) to stdout. The numeric flags bind onto exp.Options, which
// checks them as given before any experiment runs, so a bad flag never
// prints part of the output: zero is not "use the default" here. -seeds N
// runs seeds 42…42+N−1 and is the command's own.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exprun", flag.ContinueOnError)
	var opts exp.Options
	list := fs.Bool("list", false, "list experiments and exit")
	csv := fs.Bool("csv", false, "also write CSV files (requires -out)")
	out := fs.String("out", "", "directory for CSV output")
	seeds := fs.Int("seeds", 3, "number of workload seeds to average over")
	fs.IntVar(&opts.Nodes, "nodes", 32, "machine size in nodes")
	fs.IntVar(&opts.Jobs, "jobs", 300, "jobs per run")
	fs.Float64Var(&opts.RuntimeScale, "scale", 0.05, "application runtime scale (1 = full-length runs)")
	fs.Float64Var(&opts.FaultMTTR, "fault-mttr", 900, "F12: per-node mean time to repair in seconds")
	fs.Float64Var(&opts.FaultShape, "fault-shape", 1, "F12: Weibull shape of time-to-failure (1 = exponential)")
	fs.Float64Var(&opts.FaultCrashProb, "fault-crashprob", 0.02, "F12: per-attempt job crash probability")
	fs.IntVar(&opts.Workers, "workers", 0, "parallel simulation workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-3s %-22s %s\n        expectation: %s\n", e.ID, e.Name, e.Title, e.Paper)
		}
		return nil
	}
	switch {
	case *csv && *out == "":
		return errors.New("-csv requires -out")
	case *seeds < 1 || *seeds > maxSeeds:
		return fmt.Errorf("-seeds must be in [1, %d], got %d", maxSeeds, *seeds)
	}
	for s := 0; s < *seeds; s++ {
		opts.Seeds = append(opts.Seeds, uint64(42+s))
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	return runExperiments(ids, opts, *out, stdout)
}

// runExperiments executes the selected experiments one after another and
// writes each table to out as it completes. When csvDir is non-empty, each
// experiment's CSV is also written to csvDir/<ID>.csv.
func runExperiments(ids []string, opts exp.Options, csvDir string, out io.Writer) error {
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
	for _, e := range exps {
		tbl, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
		if csvDir == "" {
			continue
		}
		var csv bytes.Buffer
		if err := tbl.RenderCSV(&csv); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(csvDir, e.ID+".csv"), csv.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
