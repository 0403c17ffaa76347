// Command sweep runs a policy × load × seed grid and emits one CSV row per
// run — the bulk data source for plotting beyond the canned experiments.
//
// Cells fan out across -workers goroutines (default: all cores). Each cell
// is a pure function of its seed, and rows are reassembled in grid order —
// never completion order — so the CSV is byte-identical for any worker
// count (cmd/sweep's differential test enforces this).
//
//	sweep -policies easy,sharebackfill -loads 0.6,0.9,1.2,1.5 -seeds 5 > grid.csv
//
// With -dispatch the same grid is served to remote simd daemons instead of
// local goroutines: sweep becomes a fault-tolerant dispatcher (leases,
// requeues, speculation, first-result-wins dedup) and still emits the same
// bytes, reassembled in strict grid order.
//
//	sweep -dispatch :7077 -seeds 5 > grid.csv      # then: simd -dispatch host:7077
//
// Adding -journal makes a dispatched campaign crash-recoverable: accepted
// rows are journaled as they land, and a sweep restarted with the same
// -journal (and the same grid flags) resumes — committed rows are re-emitted
// without recomputation, the rest requeued, and workers still holding leases
// from the crashed incarnation are fenced off them. The first SIGINT drains
// (checkpointing the journal for a later resume); the second kills.
//
//	sweep -dispatch :7077 -journal grid.journal -seeds 5 > grid.csv
//
// -dispatch-health asks a running dispatcher how far the campaign is
// (cells done/leased, generation, connections) and prints the JSON reply.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sweepgrid"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "sweep:", err)
	// A drained campaign is a clean, resumable stop, not a failure. After any
	// other error the completed rows were already flushed.
	if !errors.Is(err, fabric.ErrDrained) {
		os.Exit(1)
	}
}

// run parses args and runs the grid in-process, or serves it to simd daemons
// with -dispatch, streaming the CSV to stdout. The grid flags bind onto
// sweepgrid.Spec, whose Validate checks the whole grid before any cell runs;
// -workers and the dispatch-mode numbers are run arguments, checked here.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var spec sweepgrid.Spec
	var fcfg fabric.Config
	policies := fs.String("policies", "easy,sharefirstfit,sharebackfill", "comma-separated policy list")
	loads := fs.String("loads", "0.6,0.9,1.2,1.5", "comma-separated offered loads")
	fs.IntVar(&spec.Seeds, "seeds", 3, "seeds per cell (42, 43, …)")
	fs.IntVar(&spec.Nodes, "nodes", 32, "machine size")
	fs.IntVar(&spec.Jobs, "jobs", 300, "jobs per run")
	fs.StringVar(&spec.Mix, "mix", "trinity", "application mix")
	fs.Float64Var(&spec.Scale, "scale", 0.05, "runtime scale")
	workers := fs.Int("workers", 0, "parallel grid workers (0 = all cores)")
	dispatch := fs.String("dispatch", "",
		"serve the grid to simd daemons on this address (e.g. :7077) instead of running locally")
	fs.StringVar(&fcfg.JournalPath, "journal", "",
		"campaign journal path (dispatch mode): makes the campaign crash-recoverable; restart with the same journal to resume")
	dispatchHealth := fs.String("dispatch-health", "",
		"query a running dispatcher's health at this address, print the JSON reply, and exit")
	verbose := fs.Bool("verbose", false, "log every lease decision to stderr (dispatch mode)")
	fs.Float64Var(&fcfg.VerifyFraction, "verify-sample", 0,
		"fraction of cells to re-execute on a second worker and byte-compare (dispatch mode; 0 disables, 1 verifies every cell; needs ≥2 workers)")
	fs.Uint64Var(&fcfg.VerifySeed, "verify-seed", 0,
		"seed selecting which cells fall in the verification sample (dispatch mode)")
	fs.IntVar(&fcfg.PoisonAfter, "poison-after", 0,
		"retire a cell as POISONED after it fails on this many distinct workers (dispatch mode; 0 = fabric default of 3)")
	sidecar := fs.String("poisoned-sidecar", "",
		"where to write the poisoned-cell JSON report (dispatch mode; default <journal>.poisoned.json when -journal is set)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dispatchHealth != "" {
		h, err := fabric.FetchDispatchHealth(*dispatchHealth, 5*time.Second)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(h)
	}

	var err error
	if spec.Policies, err = splitList("policies", *policies); err != nil {
		return err
	}
	if spec.Loads, err = parseLoads(*loads); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = all cores), got %d", *workers)
	}
	if err := fcfg.Validate(); err != nil {
		return fmt.Errorf("-verify-sample/-poison-after: %w", err)
	}
	if *dispatch != "" {
		if *verbose {
			fcfg.Logf = log.New(os.Stderr, "sweep: ", log.Ltime|log.Lmicroseconds).Printf
		}
		return runDispatch(spec, *dispatch, fcfg, *sidecar, stdout, func(addr string) {
			fmt.Fprintln(os.Stderr, "sweep: dispatching grid on", addr)
		})
	}
	if fcfg.JournalPath != "" {
		return errors.New("-journal requires -dispatch (the local path recomputes cells instead)")
	}
	return runGrid(spec, *workers, stdout)
}

// runGrid executes the grid in-process and streams CSV rows to out in grid
// order. On error the completed row prefix is flushed before returning, so a
// mid-grid failure never discards finished work.
func runGrid(spec sweepgrid.Spec, workers int, out io.Writer) error {
	w := csv.NewWriter(out)
	if err := w.Write(sweepgrid.Header()); err != nil {
		return err
	}
	err := parallel.RunOrdered(spec.NumCells(), workers,
		func(i int) ([]string, error) { return spec.RunCell(i) },
		func(i int, row []string) error { return w.Write(row) })
	// Flush whatever reached the writer — on failure that is every row below
	// the first failing cell — before reporting the error.
	w.Flush()
	if err != nil {
		return err
	}
	return w.Error()
}
