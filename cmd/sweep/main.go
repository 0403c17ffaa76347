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
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sweepgrid"
)

// config is a fully validated sweep invocation.
type config struct {
	policies []string
	loads    []float64
	seeds    int
	nodes    int
	jobs     int
	mixName  string
	scale    float64
	workers  int
}

// spec renders the config as the shared grid definition both execution
// paths (local goroutines, dispatched daemons) run from.
func (c config) spec() sweepgrid.Spec {
	return sweepgrid.Spec{
		Policies: c.policies,
		Loads:    c.loads,
		Seeds:    c.seeds,
		Nodes:    c.nodes,
		Jobs:     c.jobs,
		Mix:      c.mixName,
		Scale:    c.scale,
	}
}

func main() {
	policies := flag.String("policies", "easy,sharefirstfit,sharebackfill",
		"comma-separated policy list")
	loads := flag.String("loads", "0.6,0.9,1.2,1.5", "comma-separated offered loads")
	seeds := flag.Int("seeds", 3, "seeds per cell (42, 43, …)")
	nodes := flag.Int("nodes", 32, "machine size")
	jobs := flag.Int("jobs", 300, "jobs per run")
	mixName := flag.String("mix", "trinity", "application mix")
	scale := flag.Float64("scale", 0.05, "runtime scale")
	workers := flag.Int("workers", 0, "parallel grid workers (0 = all cores)")
	dispatch := flag.String("dispatch", "",
		"serve the grid to simd daemons on this address (e.g. :7077) instead of running locally")
	journal := flag.String("journal", "",
		"campaign journal path (dispatch mode): makes the campaign crash-recoverable; restart with the same journal to resume")
	dispatchHealth := flag.String("dispatch-health", "",
		"query a running dispatcher's health at this address, print the JSON reply, and exit")
	verbose := flag.Bool("verbose", false, "log every lease decision to stderr (dispatch mode)")
	verifySample := flag.Float64("verify-sample", 0,
		"fraction of cells to re-execute on a second worker and byte-compare (dispatch mode; 0 disables, 1 verifies every cell; needs ≥2 workers)")
	verifySeed := flag.Uint64("verify-seed", 0,
		"seed selecting which cells fall in the verification sample (dispatch mode)")
	poisonAfter := flag.Int("poison-after", 0,
		"retire a cell as POISONED after it fails on this many distinct workers (dispatch mode; 0 = fabric default of 3)")
	poisonedSidecar := flag.String("poisoned-sidecar", "",
		"where to write the poisoned-cell JSON report (dispatch mode; default <journal>.poisoned.json when -journal is set)")
	flag.Parse()

	if *dispatchHealth != "" {
		h, err := fabric.FetchDispatchHealth(*dispatchHealth, 5*time.Second)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(h); err != nil {
			fatal(err)
		}
		return
	}

	cfg, err := validate(*policies, *loads, *seeds, *nodes, *jobs, *mixName, *scale, *workers)
	if err != nil {
		fatal(err)
	}
	if *dispatch != "" {
		err = runDispatch(cfg, *dispatch, *journal, os.Stdout, dispatchOpts{
			verbose:         *verbose,
			verifySample:    *verifySample,
			verifySeed:      *verifySeed,
			poisonAfter:     *poisonAfter,
			poisonedSidecar: *poisonedSidecar,
			started: func(addr string) {
				fmt.Fprintln(os.Stderr, "sweep: dispatching grid on", addr)
			},
		})
		if errors.Is(err, fabric.ErrDrained) {
			// A drained campaign is a clean, resumable stop, not a failure.
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return
		}
	} else {
		if *journal != "" {
			fatal(errors.New("-journal requires -dispatch (the local path recomputes cells instead)"))
		}
		err = run(cfg, os.Stdout)
	}
	if err != nil {
		// Completed rows were already flushed; exit non-zero without
		// dropping them.
		fatal(err)
	}
}

// validate parses the list flags and checks the grid up front, through
// sweepgrid.Spec.Validate, so the grid never starts doomed.
func validate(policies, loads string, seeds, nodes, jobs int, mixName string,
	scale float64, workers int) (config, error) {

	var cfg config
	var err error
	if cfg.policies, err = splitList("policies", policies); err != nil {
		return config{}, err
	}
	if cfg.loads, err = parseLoads(loads); err != nil {
		return config{}, err
	}
	cfg.seeds, cfg.nodes, cfg.jobs, cfg.scale = seeds, nodes, jobs, scale
	cfg.mixName = mixName
	cfg.workers = workers
	if err := cfg.spec().Validate(); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// run executes the grid in-process and streams CSV rows to out in grid
// order. On error the completed row prefix is flushed before returning, so a
// mid-grid failure never discards finished work.
func run(cfg config, out io.Writer) error {
	spec := cfg.spec()
	w := csv.NewWriter(out)
	if err := w.Write(sweepgrid.Header()); err != nil {
		return err
	}
	err := parallel.RunOrdered(spec.NumCells(), cfg.workers,
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
