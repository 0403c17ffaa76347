package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
	"repro/internal/sweepgrid"
	"repro/internal/vfs"
)

// runDispatch serves the grid to simd daemons: sweep becomes the fabric
// dispatcher and the CSV is reassembled from remotely-computed rows in
// strict grid order — byte-identical to the local path, because both sides
// run the same sweepgrid cells and row encoder.
//
// fcfg carries the dispatch-mode flags (journal, verification sample,
// poison threshold, decision log); runDispatch adds the grid, the row sink
// and the filesystem. started, when set, receives the bound address once
// listening, so tests can dial an ephemeral port.
//
// With a journal the campaign is crash-recoverable: accepted rows are
// journaled, and a dispatcher restarted on the same journal re-emits the
// committed prefix, requeues the rest, and fences workers still holding
// pre-crash leases. The signal ladder matches simd and mini-slurm: the
// first SIGINT/SIGTERM checkpoints the journal and drains (in-flight cells
// land, nothing new is granted; Wait returns fabric.ErrDrained), the second
// kills immediately.
//
// A campaign that completes around poisoned cells returns the fabric's
// *PoisonedError (sweep exits nonzero — the CSV is incomplete) after writing
// a machine-readable sidecar naming each poisoned cell and why, so an
// operator can recompute exactly the missing rows. The sidecar goes to
// sidecar, else next to the journal, else nowhere (the exit error still
// names every poisoned cell).
func runDispatch(spec sweepgrid.Spec, addr string, fcfg fabric.Config, sidecar string, out io.Writer,
	started func(string)) error {
	specBytes, err := spec.Marshal()
	if err != nil {
		return err
	}
	// Header goes out before the dispatcher exists: a resumed campaign
	// re-emits its journal-committed rows inside NewDispatcher, and once the
	// port is open workers complete cells concurrently — either way rows
	// must land after the header.
	header, err := sweepgrid.EncodeRow(sweepgrid.Header())
	if err != nil {
		return err
	}
	if _, err := out.Write(header); err != nil {
		return err
	}
	fcfg.Cells, fcfg.Spec, fcfg.FS = spec.NumCells(), specBytes, vfs.OS{}
	fcfg.Consume = func(i int, row []byte) error {
		_, err := out.Write(row)
		return err
	}
	d, err := fabric.NewDispatcher(fcfg)
	if err != nil {
		return err
	}
	defer d.Close()

	// First signal drains (journal checkpointed; restart resumes), second
	// kills — the same shutdown ladder simd and mini-slurm follow.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	sigDone := make(chan struct{})
	defer close(sigDone)
	go func() {
		select {
		case <-sigs:
		case <-sigDone:
			return
		}
		fmt.Fprintln(os.Stderr, "sweep: draining (journal checkpointed; signal again to kill)")
		d.Drain()
		select {
		case <-sigs:
		case <-sigDone:
			return
		}
		fmt.Fprintln(os.Stderr, "sweep: killed")
		d.Close()
	}()

	bound, err := d.Listen(addr)
	if err != nil {
		return err
	}
	if started != nil {
		started(bound)
	}
	err = d.Wait(context.Background())
	var perr *fabric.PoisonedError
	if errors.As(err, &perr) {
		if sidecar == "" && fcfg.JournalPath != "" {
			sidecar = fcfg.JournalPath + ".poisoned.json"
		}
		writePoisonedSidecar(sidecar, perr)
	}
	return err
}

// writePoisonedSidecar records which cells the campaign completed around and
// why, as JSON next to the journal (or wherever -poisoned-sidecar points):
// the machine-readable companion to the nonzero exit, listing exactly the
// rows an operator must recompute.
func writePoisonedSidecar(path string, perr *fabric.PoisonedError) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(perr, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep: encode poisoned sidecar:", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sweep: write poisoned sidecar:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "sweep: poisoned-cell report written to", path)
}
