package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sweepgrid"
)

// fabricLoad runs a campaign of deliberately tiny cells through a journaled
// dispatcher and loopback workers, so leases, round trips, checksums and
// journal appends are a visible share of worker time.
type fabricLoad struct{}

type fabricInstance struct {
	cfg  *runConfig
	spec sweepgrid.Spec
	raw  []byte
	// want is the in-process pool's output for the same grid; every campaign
	// must deliver exactly these bytes.
	want        []byte
	poolCellsPS float64
	tmp         string
}

func (fabricLoad) setUp(cfg *runConfig, res *result, traced bool) (instance, error) {
	spec := sweepgrid.Spec{
		Policies: gridPolicies, Loads: drawLoads(cfg.seed), Seeds: 100,
		Nodes: 32, Jobs: 30, Mix: "trinity", Scale: 0.05,
	}
	if cfg.short {
		spec.Policies, spec.Seeds = []string{"easy", "sharebackfill"}, 4
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	raw, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "fabric-")
	if err != nil {
		return nil, err
	}

	// The reference output, and the pool's own speed on this grid.
	var want bytes.Buffer
	n := spec.NumCells()
	start := time.Now()
	err = parallel.RunOrdered(n, cfg.threads,
		func(i int) ([]byte, error) { return spec.RunCellBytes(i) },
		func(i int, row []byte) error { _, err := want.Write(row); return err })
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return &fabricInstance{
		cfg: cfg, spec: spec, raw: raw, want: want.Bytes(),
		poolCellsPS: float64(n) / time.Since(start).Seconds(), tmp: tmp,
	}, nil
}

func (f *fabricInstance) close() { os.RemoveAll(f.tmp) }

// campaign is what one dispatcher campaign measured.
type campaign struct {
	wall     time.Duration
	fnNS     int64
	counters fabric.Counters
	fs       fsSnapshot
	requests int64
	wire     int64
	got      []byte
}

func (f *fabricInstance) campaign(tr *tracer, rep int) (campaign, error) {
	var out campaign
	n := f.spec.NumCells()
	workers := f.cfg.threads
	fs := newCountingFS(syncReal)
	var got bytes.Buffer

	root := tr.start(0, rep, "fabric.campaign")
	d, err := fabric.NewDispatcher(fabric.Config{
		Cells: n,
		Spec:  f.raw,
		Consume: func(i int, row []byte) error {
			_, err := got.Write(row)
			return err
		},
		JournalPath: filepath.Join(f.tmp, fmt.Sprintf("campaign-%d.journal", rep)),
		FS:          fs,
	})
	if err != nil {
		return out, err
	}
	defer d.Close()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	var fw *forwarder
	if tr != nil {
		if fw, err = newForwarder(addr); err != nil {
			return out, err
		}
		defer fw.close()
		addr = fw.addr()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var fnNS atomic.Int64
	// Build every worker before starting any, so a configuration error cannot
	// leave started workers behind.
	ws := make([]*fabric.Worker, workers)
	for i := range ws {
		ws[i], err = fabric.NewWorker(fabric.WorkerConfig{
			ID:   fmt.Sprintf("bench-%d-%d", rep, i),
			Addr: addr,
			Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
				sp := tr.start(root.id, rep, "fabric.worker_fn")
				t0 := time.Now()
				row, err := f.spec.RunCellBytes(cell)
				fnNS.Add(time.Since(t0).Nanoseconds())
				sp.end(map[string]float64{"cell": float64(cell)})
				return row, err
			},
		})
		if err != nil {
			return out, err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *fabric.Worker) {
			defer wg.Done()
			// A worker's error once the campaign is over (context cancelled,
			// dispatcher gone) is not a result.
			_ = w.Run(ctx)
		}(w)
	}
	err = d.Wait(ctx)
	out.wall = time.Since(start)
	// Stop the workers and wait for them before anything is read: a worker
	// still polling for a lease must not outlive its campaign.
	cancel()
	wg.Wait()
	root.end(map[string]float64{"cells": float64(n), "workers": float64(workers)})
	if err != nil {
		return out, fmt.Errorf("campaign %d: %w", rep, err)
	}

	out.fnNS = fnNS.Load()
	out.counters = d.Counters()
	out.fs = fs.c.snapshot()
	if fw != nil {
		out.requests, out.wire = fw.requests.Load(), fw.bytes.Load()
	}
	out.got = got.Bytes()
	return out, nil
}

// check applies the campaign's correctness conditions and returns how many of
// its cells count as failed.
func (f *fabricInstance) check(c campaign, rep int, res *result) int {
	n := f.spec.NumCells()
	bad := 0
	if !bytes.Equal(c.got, f.want) {
		bad = n
		res.problem("campaign %d: dispatched output (%d bytes) differs from the in-process pool's (%d bytes)", rep, len(c.got), len(f.want))
	}
	k := c.counters
	if k.Completed != int64(n) || k.Poisoned != 0 || k.ChecksumRejects != 0 || k.JournalErrors != 0 {
		bad = n
		res.problem("campaign %d: completed %d of %d cells, %d poisoned, %d checksum rejects, %d journal errors",
			rep, k.Completed, n, k.Poisoned, k.ChecksumRejects, k.JournalErrors)
	}
	return bad
}

func (f *fabricInstance) measure(d time.Duration, tr *tracer, res *result) error {
	n := f.spec.NumCells()
	workers := float64(f.cfg.threads)
	if _, err := f.campaign(nil, 0); err != nil { // untimed warm-up
		return err
	}

	minReps := 3
	if f.cfg.short {
		minReps = 2
	}
	var runs []campaign
	start := time.Now()
	for rep := 1; rep <= minReps || time.Since(start) < d; rep++ {
		c, err := f.campaign(tr, rep)
		if err != nil {
			return err
		}
		res.ops(n, f.check(c, rep, res))
		runs = append(runs, c)
		if f.cfg.short && rep >= minReps {
			break
		}
	}
	res.digest = csvDigest(f.want)

	walls := make([]time.Duration, len(runs))
	for i, c := range runs {
		walls[i] = c.wall
	}
	res.throughput("fabric_cells_per_s", float64(n), walls)

	med := func(f func(campaign) float64) float64 { return medianOf(runs, f) }
	cells := float64(n)
	res.set("fabric.wall_s", med(func(c campaign) float64 { return c.wall.Seconds() }))
	res.set("fabric.fn_s_sum", med(func(c campaign) float64 { return float64(c.fnNS) / 1e9 }))
	res.set("fabric.overhead_ms_per_cell", med(func(c campaign) float64 {
		return (workers*c.wall.Seconds() - float64(c.fnNS)/1e9) / cells * 1e3
	}))
	res.set("fabric.grants_per_cell", med(func(c campaign) float64 { return float64(c.counters.Granted) / cells }))
	res.set("fabric.requeues", med(func(c campaign) float64 { return float64(c.counters.Requeues) }))
	res.set("fabric.speculative_grants", med(func(c campaign) float64 { return float64(c.counters.SpeculativeGrants) }))
	res.set("fabric.deduped", med(func(c campaign) float64 { return float64(c.counters.Deduped) }))
	res.set("fabric.pool_cells_per_s", f.poolCellsPS)
	res.set("fabric.efficiency_vs_pool", res.values["fabric_cells_per_s"]/f.poolCellsPS)
	res.set("fabric.journal_appends_per_cell", med(func(c campaign) float64 { return float64(c.fs.writes) / cells }))
	res.set("fabric.journal_bytes_per_cell", med(func(c campaign) float64 { return float64(c.fs.writeBytes) / cells }))
	res.set("fabric.journal_syncs", med(func(c campaign) float64 { return float64(c.fs.syncs) }))
	if tr != nil {
		res.set("fabric.round_trips_per_cell", med(func(c campaign) float64 { return float64(c.requests) / cells }))
		res.set("fabric.wire_bytes_per_cell", med(func(c campaign) float64 { return float64(c.wire) / cells }))
	}
	return nil
}
