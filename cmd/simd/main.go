// Command simd is the sweep fabric's worker daemon: it dials a dispatcher
// (sweep -dispatch), fetches the grid spec at hello, and runs
// lease → execute → complete loops until the campaign is done. It is built
// to be killed: leases it holds are reclaimed by the dispatcher, duplicates
// of its work dedupe first-result-wins, and on restart it simply rejoins.
//
//	simd -dispatch host:7077 -parallel 4 -health :7078
//
// The dispatcher may also die and come back (sweep -dispatch -journal): each
// reconnect's hello adopts the dispatcher's current generation, while a
// lease keeps the generation it was granted under — so a completion or
// heartbeat that crossed a dispatcher restart is fenced as stale and the
// loop re-leases under the new incarnation, with no operator involvement.
//
// Signals follow the mini-slurm convention: the first SIGINT/SIGTERM drains
// (each loop finishes and completes its in-flight cell, says goodbye, and
// exits); a second signal kills immediately (in-flight work is abandoned to
// the dispatcher's reclaim machinery). The -health address answers the
// mini-slurm-style health verb with an ok|draining|fenced|quarantined status
// and a fabric section (cells done, current lease, each loop's dispatcher
// generation — a mid-campaign bump means the dispatcher restarted).
//
// -max-reconnect bounds how many consecutive dead rounds (a full retry
// budget burned without reaching the dispatcher) the daemon tolerates before
// exiting nonzero — so a fleet pointed at a permanently dead dispatcher
// fails cleanly instead of looping forever. 0 (the default) retries forever.
//
// -check-health queries another daemon's -health address and exits by
// status: 0 for ok or draining, 2 if any loop is fenced or quarantined, 1 if
// the daemon is unreachable — so scripts and fleet supervisors can act on a
// misbehaving worker from the exit code alone.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/sweepgrid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		var code exitCode
		switch {
		case errors.Is(err, flag.ErrHelp):
			return
		case errors.As(err, &code):
			os.Exit(int(code))
		}
		fatal(err)
	}
}

// exitCode is a failure already reported on stderr that exits with its own
// status: -check-health's 1 and 2.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// run parses args and refuses a bad flag before it does anything else; then
// it answers -check-health, or runs the daemon until its campaign is done.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	dispatch := fs.String("dispatch", "", "dispatcher address (required), e.g. host:7077")
	id := fs.String("id", "", "stable worker identity (default: hostname-pid)")
	parallel := fs.Int("parallel", 0, "concurrent cell loops (0 = all cores)")
	health := fs.String("health", "", "serve the health verb on this address (e.g. :7078)")
	specTimeout := fs.Duration("spec-timeout", time.Minute,
		"how long to retry fetching the spec from the dispatcher (0 = one attempt)")
	maxReconnect := fs.Int("max-reconnect", 0,
		"give up after this many consecutive failed reconnect rounds (0 = retry forever)")
	checkHealth := fs.String("check-health", "",
		"query a daemon's -health address and exit by status (0 ok/draining, 2 fenced/quarantined, 1 unreachable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *parallel < 0:
		return fmt.Errorf("-parallel must be ≥ 0 (0 = all cores), got %d", *parallel)
	case *specTimeout < 0:
		return fmt.Errorf("-spec-timeout must be ≥ 0 (0 = one attempt), got %v", *specTimeout)
	case *maxReconnect < 0:
		return fmt.Errorf("-max-reconnect must be ≥ 0 (0 = retry forever), got %d", *maxReconnect)
	}

	if *checkHealth != "" {
		if code := runCheckHealth(*checkHealth, stdout); code != 0 {
			return exitCode(code)
		}
		return nil
	}
	if *dispatch == "" {
		return errors.New("-dispatch is required")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "simd"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *parallel == 0 {
		*parallel = runtime.NumCPU()
	}

	d, err := newDaemon(*dispatch, *id, *parallel, *specTimeout, *maxReconnect)
	if err != nil {
		return err
	}

	if *health != "" {
		bound, stop, err := fabric.ServeHealth(*health, d.healthReport)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintln(os.Stderr, "simd: health on", bound)
	}

	// First signal drains, second kills — the shutdown ladder ops expect.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "simd: draining (signal again to kill)")
		d.Drain()
		<-sigs
		fmt.Fprintln(os.Stderr, "simd: killed")
		d.Kill()
	}()

	fmt.Fprintf(os.Stderr, "simd: %s running %d loops against %s (%d cells)\n",
		*id, *parallel, *dispatch, d.cells)
	runErr := d.Run(context.Background())
	rep := d.healthReport()
	fmt.Fprintf(os.Stderr, "simd: done, %d cells completed\n", rep.Fabric.CellsDone)
	// Typically ErrDispatcherUnreachable after the -max-reconnect budget: a
	// clean nonzero exit a fleet supervisor can see and act on.
	return runErr
}

// runCheckHealth is the -check-health query mode: fetch another daemon's
// health verb, print the JSON reply, and translate the status into an exit
// code scripts can branch on.
func runCheckHealth(addr string, out io.Writer) int {
	h, err := fabric.FetchWorkerHealth(addr, 5*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 1
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 1
	}
	switch h.Health {
	case fabric.HealthOK, fabric.HealthDraining:
		return 0
	default: // fenced, quarantined, or anything unrecognised: misbehaving
		return 2
	}
}

// daemon is a fleet of worker loops sharing one identity prefix and one
// fetched spec.
type daemon struct {
	workers []*fabric.Worker
	cells   int
}

// newDaemon fetches and validates the spec, then builds (but does not start)
// the worker loops. A spec the daemon cannot honour — wrong mix name,
// impossible grid — is rejected here, before any lease is taken.
func newDaemon(dispatch, id string, parallel int, specTimeout time.Duration, maxReconnect int) (*daemon, error) {
	raw, cells, err := fabric.FetchSpec(dispatch, specTimeout)
	if err != nil {
		return nil, fmt.Errorf("fetch spec: %w", err)
	}
	spec, err := sweepgrid.DecodeSpec(raw)
	if err != nil {
		return nil, err
	}
	if got := spec.NumCells(); got != cells {
		return nil, fmt.Errorf("spec disagrees with dispatcher: %d cells vs %d advertised", got, cells)
	}

	d := &daemon{cells: cells}
	for i := 0; i < parallel; i++ {
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			ID:           fmt.Sprintf("%s/%d", id, i),
			Addr:         dispatch,
			MaxReconnect: maxReconnect,
			Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
				return spec.RunCellBytes(cell)
			},
		})
		if err != nil {
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	return d, nil
}

// Run drives every loop until the campaign is done, the daemon is killed, or
// a drain completes. The first loop error (typically the -max-reconnect
// budget exhausted against a dead dispatcher) is returned so main can exit
// nonzero.
func (d *daemon) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *fabric.Worker) {
			defer wg.Done()
			err := w.Run(ctx)
			if err != nil && !errors.Is(err, context.Canceled) {
				// A cancelled context is the operator's own kill, not a
				// failure worth a nonzero exit.
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// Drain lets each loop finish and complete its in-flight cell, then exit.
func (d *daemon) Drain() {
	for _, w := range d.workers {
		w.Drain()
	}
}

// Kill abandons in-flight work immediately; the dispatcher reclaims.
func (d *daemon) Kill() {
	for _, w := range d.workers {
		w.Kill()
	}
}

// healthReport folds every loop's snapshot into the daemon-level health verb
// reply.
func (d *daemon) healthReport() fabric.HealthReport {
	snaps := make([]fabric.WorkerSnapshot, 0, len(d.workers))
	for _, w := range d.workers {
		snaps = append(snaps, w.Snapshot())
	}
	return fabric.AggregateHealth(snaps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simd:", err)
	os.Exit(1)
}
