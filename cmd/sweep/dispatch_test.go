package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sweepgrid"
)

// TestDifferentialDispatch is the distributed half of the determinism
// contract: the same grid served through the fabric dispatcher to worker
// daemons must emit CSV byte-identical to the in-process -workers path. Rows
// are computed remotely, complete out of order, and are reassembled in
// strict grid order — the bytes must not care.
func TestDifferentialDispatch(t *testing.T) {
	grid := gridSpec()
	local := runToBytes(t, grid, 2)

	var remote bytes.Buffer
	started := make(chan string, 1)
	dispatchErr := make(chan error, 1)
	go func() {
		dispatchErr <- runDispatch(grid, "127.0.0.1:0", fabric.Config{}, "", &remote,
			func(addr string) { started <- addr })
	}()

	var addr string
	select {
	case addr = <-started:
	case err := <-dispatchErr:
		t.Fatalf("dispatcher exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher never started listening")
	}

	// Worker daemons, exactly as cmd/simd builds them: fetch the spec at
	// hello, run cells from it.
	raw, cells, err := fabric.FetchSpec(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepgrid.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cells != spec.NumCells() {
		t.Fatalf("dispatcher advertises %d cells, spec has %d", cells, spec.NumCells())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			ID:   string(rune('a' + i)),
			Addr: addr,
			Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
				return spec.RunCellBytes(cell)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}

	select {
	case err := <-dispatchErr:
		if err != nil {
			t.Fatalf("dispatch campaign: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("dispatch campaign did not finish")
	}

	if !bytes.Equal(local, remote.Bytes()) {
		t.Fatalf("dispatched output differs from local run:\n--- local ---\n%s\n--- dispatched ---\n%s",
			local, remote.Bytes())
	}
}

// TestDispatchJournalResume is the CLI half of the crash-recovery contract:
// a journaled campaign run to completion, then re-run with the same journal
// and ZERO workers, must re-emit the identical CSV purely from the journal —
// no cell is recomputed, the header lands before the replayed rows, and the
// second run exits as soon as the recovered prefix covers the grid.
func TestDispatchJournalResume(t *testing.T) {
	grid := gridSpec()
	local := runToBytes(t, grid, 2)
	journal := filepath.Join(t.TempDir(), "grid.journal")

	// First run: a journaled campaign completed by real workers.
	var first bytes.Buffer
	started := make(chan string, 1)
	dispatchErr := make(chan error, 1)
	go func() {
		dispatchErr <- runDispatch(grid, "127.0.0.1:0", fabric.Config{JournalPath: journal}, "", &first,
			func(addr string) { started <- addr })
	}()
	var addr string
	select {
	case addr = <-started:
	case err := <-dispatchErr:
		t.Fatalf("dispatcher exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher never started listening")
	}
	raw, _, err := fabric.FetchSpec(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepgrid.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			ID:   string(rune('a' + i)),
			Addr: addr,
			Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
				return spec.RunCellBytes(cell)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}
	select {
	case err := <-dispatchErr:
		if err != nil {
			t.Fatalf("journaled campaign: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("journaled campaign did not finish")
	}
	if !bytes.Equal(local, first.Bytes()) {
		t.Fatalf("journaled run differs from local run:\n--- local ---\n%s\n--- journaled ---\n%s",
			local, first.Bytes())
	}

	// Second run: same journal, no workers. Every row must come back from
	// the journal alone, byte-identical.
	var second bytes.Buffer
	if err := runDispatch(grid, "127.0.0.1:0", fabric.Config{JournalPath: journal}, "", &second, nil); err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if !bytes.Equal(local, second.Bytes()) {
		t.Fatalf("journal replay differs from local run:\n--- local ---\n%s\n--- replay ---\n%s",
			local, second.Bytes())
	}
}

// TestDispatchJournalRefusesOtherGrid: restarting with the same journal but
// a different grid must refuse rather than mix campaigns.
func TestDispatchJournalRefusesOtherGrid(t *testing.T) {
	grid := gridSpec()
	journal := filepath.Join(t.TempDir(), "grid.journal")
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runDispatch(grid, "127.0.0.1:0", fabric.Config{JournalPath: journal}, "", &out, nil)
	}()
	// The journal header+campaign records are written inside NewDispatcher,
	// before Listen; poll until the file exists, then abandon the campaign.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(journal); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never created")
		}
		time.Sleep(10 * time.Millisecond)
	}

	other := grid
	other.Policies, other.Loads, other.Seeds = []string{"easy"}, []float64{0.9}, 1
	var out2 bytes.Buffer
	if err := runDispatch(other, "127.0.0.1:0", fabric.Config{JournalPath: journal}, "", &out2, nil); !errors.Is(err, fabric.ErrCampaignMismatch) {
		t.Fatalf("dispatch on foreign journal = %v, want ErrCampaignMismatch", err)
	}
}

// TestDispatchPoisonedSidecar is the CLI half of the containment contract: a
// cell that fails on enough distinct workers is poisoned, the campaign
// completes around it, runDispatch returns the fabric's *PoisonedError (so
// sweep exits nonzero), and the machine-readable sidecar lands next to the
// journal naming exactly the missing cell. Every healthy row still matches
// the local run byte-for-byte.
func TestDispatchPoisonedSidecar(t *testing.T) {
	const badCell = 3
	grid := gridSpec()
	local := runToBytes(t, grid, 2)
	journal := filepath.Join(t.TempDir(), "grid.journal")

	var remote bytes.Buffer
	started := make(chan string, 1)
	dispatchErr := make(chan error, 1)
	go func() {
		dispatchErr <- runDispatch(grid, "127.0.0.1:0", fabric.Config{JournalPath: journal, PoisonAfter: 2}, "", &remote,
			func(addr string) { started <- addr })
	}()
	var addr string
	select {
	case addr = <-started:
	case err := <-dispatchErr:
		t.Fatalf("dispatcher exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher never started listening")
	}

	raw, _, err := fabric.FetchSpec(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepgrid.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			ID:   string(rune('a' + i)),
			Addr: addr,
			Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
				if cell == badCell {
					return nil, errors.New("synthetic: cell is bad on every worker")
				}
				return spec.RunCellBytes(cell)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}

	var derr error
	select {
	case derr = <-dispatchErr:
	case <-time.After(120 * time.Second):
		t.Fatal("dispatch campaign did not finish")
	}
	var perr *fabric.PoisonedError
	if !errors.As(derr, &perr) || len(perr.Cells) != 1 || perr.Cells[0].Cell != badCell {
		t.Fatalf("runDispatch = %v, want *PoisonedError naming cell %d", derr, badCell)
	}

	// The CSV is the local golden minus exactly the poisoned cell's row
	// (header is line 0, cell i is line i+1).
	localLines := bytes.Split(local, []byte("\n"))
	want := append([][]byte{}, localLines[:badCell+1]...)
	want = append(want, localLines[badCell+2:]...)
	if got := remote.Bytes(); !bytes.Equal(got, bytes.Join(want, []byte("\n"))) {
		t.Fatalf("dispatched output differs from golden-minus-poisoned:\n--- want ---\n%s\n--- got ---\n%s",
			bytes.Join(want, []byte("\n")), got)
	}

	// The sidecar defaulted to <journal>.poisoned.json and names the cell.
	data, err := os.ReadFile(journal + ".poisoned.json")
	if err != nil {
		t.Fatalf("poisoned sidecar: %v", err)
	}
	var side fabric.PoisonedError
	if err := json.Unmarshal(data, &side); err != nil {
		t.Fatalf("sidecar parse: %v (%s)", err, data)
	}
	if len(side.Cells) != 1 || side.Cells[0].Cell != badCell || side.Cells[0].Err == "" {
		t.Fatalf("sidecar = %+v, want cell %d with its error", side, badCell)
	}
}
