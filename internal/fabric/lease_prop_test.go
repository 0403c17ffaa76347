package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
)

// updateLeaseGolden rewrites testdata/lease_decisions.golden. The file was
// recorded from the dispatcher as it stood before its lease table was
// restructured and is the reference for every later change to the lease
// machine: regenerating it to make a change green defeats it.
var updateLeaseGolden = flag.Bool("update-lease-golden", false, "rewrite testdata/lease_decisions.golden (record from the parent commit only)")

// TestLeasePropertyInterleavings is the property test for the lease machine:
// for many seeds it interleaves grants, heartbeats, clock advances (expiries),
// completions — good, duplicate, stale, failed, checksum-broken, wrong-bytes —
// disconnects, goodbyes, rejoins and the occasional Drain in seeded random
// orders, checks the fabric invariants (DESIGN §6, FAB-1…3) after every
// step, then drives the campaign to its end and asserts what the fabric's
// correctness rests on:
//
//  1. exactly-once output — every cell is consumed at most once, in strict
//     index order, with the right bytes, and exactly once unless it was
//     poisoned or the campaign drained first;
//  2. monotone lease epochs — a cell's high-water epoch never decreases, so
//     stale messages stay recognisable forever.
//
// Each seed runs twice, without and with sampled redundant verification, and
// both runs' decision logs and counters are held against
// testdata/lease_decisions.golden: the lease machine may be rebuilt, what it
// decides may not move. Failures print the seed for replay.
func TestLeasePropertyInterleavings(t *testing.T) {
	seeds := 150
	steps := 400
	if testing.Short() {
		seeds = 25
	}
	var got []string
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, verify := range []float64{0, 0.5} {
				got = append(got, fmt.Sprintf("seed=%d verify=%g %s", seed, verify,
					runLeaseInterleaving(t, uint64(seed), steps, verify)))
			}
		})
	}
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "lease_decisions.golden")
	if *updateLeaseGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) < len(got) {
		t.Fatalf("golden has %d lines, the run produced %d", len(want), len(got))
	}
	for i := range got { // -short checks the prefix it ran
		if got[i] != want[i] {
			t.Errorf("lease decisions moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// heldLease is one lease the property driver knows about — possibly long
// since reclaimed by the dispatcher (that is the point: we replay old
// leases' heartbeats and completions to model lag and rejoin).
type heldLease struct {
	worker string
	conn   int64
	cell   int
	epoch  int64
}

// rowHeld reports whether cell i holds an accepted row that has not been
// handed to Consume yet.
func rowHeld(d *Dispatcher, i int) bool { return d.cells[i].row != nil }

// runLeaseInterleaving drives one seeded campaign and returns its golden
// record: the SHA-256 of the decision log and the final DispatchHealth,
// then the Counters in clear.
func runLeaseInterleaving(t *testing.T, seed uint64, steps int, verifyFraction float64) string {
	const cells = 12
	const workers = 4

	// Consume runs under d.mu on the driver's own goroutine.
	consumed := make(map[int]int)
	lastIdx := -1
	col := func(i int, res []byte) error {
		consumed[i]++
		if i <= lastIdx {
			t.Errorf("seed %d: consume index %d after %d", seed, i, lastIdx)
		}
		lastIdx = i
		if want := fmt.Sprintf("v%d", i); string(res) != want {
			t.Errorf("seed %d: cell %d payload %q, want %q", seed, i, res, want)
		}
		return nil
	}

	d, err := NewDispatcher(Config{
		Cells:              cells,
		Consume:            col,
		LeaseTTL:           10 * time.Second,
		DisconnectGrace:    2 * time.Second,
		Window:             5,
		SpecMinSamples:     2,
		SpecPercentile:     0.5,
		SpecMultiplier:     2,
		MaxCellRetries:     4,
		RetryBackoff:       500 * time.Millisecond,
		QuarantineCooldown: 20 * time.Second,
		VerifyFraction:     verifyFraction,
		VerifySeed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	d.now = clk.now

	rng := des.NewRNG(seed).Stream("fabric/lease-prop")
	var held []heldLease // every lease ever granted, stale ones included
	highWater := make([]int64, cells)

	checkInvariants := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		for i := range d.cells {
			c := &d.cells[i]
			if c.epoch < highWater[i] {
				t.Fatalf("seed %d: cell %d epoch regressed %d → %d", seed, i, highWater[i], c.epoch)
			}
			highWater[i] = c.epoch
			if len(c.leases) > 2 {
				t.Fatalf("seed %d: cell %d carries %d concurrent leases", seed, i, len(c.leases))
			}
			// FAB-1: a lease exists only inside the reassembly window.
			if c.state == stateLeased && (i < d.nextFlush || i >= d.nextFlush+d.cfg.Window) {
				t.Fatalf("seed %d: LEASED cell %d outside the window [%d, %d)", seed, i, d.nextFlush, d.nextFlush+d.cfg.Window)
			}
			// FAB-2: a row is held by exactly the DONE cells not yet flushed.
			if want := c.state == stateDone && i >= d.nextFlush; rowHeld(d, i) != want {
				t.Fatalf("seed %d: cell %d (%s, nextFlush %d) row held = %v", seed, i, c.state, d.nextFlush, !want)
			}
			// FAB-3: LEASED ⇔ at least one lease; terminal and PENDING cells
			// hold none.
			if (c.state == stateLeased) != (len(c.leases) > 0) {
				t.Fatalf("seed %d: cell %d is %s with %d leases", seed, i, c.state, len(c.leases))
			}
		}
	}

	workerName := func(k int) string { return fmt.Sprintf("w%d", k) }
	good := func(cell int) []byte { return []byte(fmt.Sprintf("v%d", cell)) }
	// pick draws a lease to replay: half the time one of the newest few (so
	// live leases complete often enough to make progress), else any ever held.
	pick := func() (heldLease, bool) {
		if len(held) == 0 {
			return heldLease{}, false
		}
		if recent := min(len(held), 6); rng.Intn(2) == 0 {
			return held[len(held)-1-rng.Intn(recent)], true
		}
		return held[rng.Intn(len(held))], true
	}
	// gen is the generation a replayed message carries: now and then a
	// pre-restart one, which must fence.
	gen := func() int64 {
		if rng.Intn(24) == 0 {
			return 0
		}
		return 1
	}
	grant := func(worker string, conn int64) response {
		resp := d.grant(worker, conn)
		if resp.Granted {
			held = append(held, heldLease{worker, conn, resp.Cell, resp.Epoch})
		}
		return resp
	}

	drainAt := -1
	if seed%5 == 0 {
		drainAt = steps * 3 / 4
	}
	for step := 0; step < steps; step++ {
		if step == drainAt {
			d.Drain()
		}
		switch rng.Intn(14) {
		case 0, 1, 2: // a worker asks for work (drives sweeps + speculation too)
			k := rng.Intn(workers)
			grant(workerName(k), int64(k))
		case 3: // time passes — possibly past lease TTLs
			clk.advance(time.Duration(rng.Intn(8000)) * time.Millisecond)
		case 4, 5, 6: // a held lease (live, long-dead or already completed) completes
			if l, ok := pick(); ok {
				complete(d, l.worker, l.cell, l.epoch, gen(), good(l.cell), "")
			}
		case 7: // a held lease heartbeats (rejoin on a fresh conn)
			if l, ok := pick(); ok {
				conn := l.conn
				if rng.Intn(2) == 0 {
					conn = int64(100 + rng.Intn(100)) // reconnected elsewhere
				}
				d.heartbeat(l.worker, l.cell, l.epoch, gen(), conn)
			}
		case 8: // a connection drops abruptly
			d.dropConn(int64(rng.Intn(workers)))
		case 9, 10: // the cell function failed: retry backoff, then poison
			if l, ok := pick(); ok {
				complete(d, l.worker, l.cell, l.epoch, 1, nil, fmt.Sprintf("boom on %s", l.worker))
			}
		case 11: // a worker says goodbye, possibly with a lease still held
			k := rng.Intn(workers)
			d.goodbye(workerName(k), int64(k))
		case 12: // a payload corrupted in flight: the checksum no longer covers it
			if l, ok := pick(); ok && rng.Intn(3) == 0 {
				d.complete(l.worker, l.cell, l.epoch, 1, good(l.cell), completionSum(d.specSHAHex, l.cell, good(l.cell))^1, "")
			}
		case 13: // wrong bytes under a correct checksum, on a verify-sampled cell
			if l, ok := pick(); ok && d.verifySampled(l.cell) {
				complete(d, l.worker, l.cell, l.epoch, 1, []byte(fmt.Sprintf("bad-%s-%d", l.worker, l.cell)), "")
			}
		}
		checkInvariants()
	}

	// Drive the campaign to its end honestly: three finishers (a sampled cell
	// needs distinct workers) grant and complete until the dispatcher says
	// done, advancing the clock past stuck leases, backoffs and quarantines.
	for i := 0; i < 10_000; i++ {
		d.mu.Lock()
		doneNow := d.done
		d.mu.Unlock()
		if doneNow {
			break
		}
		finisher := fmt.Sprintf("finisher-%d", i%3)
		resp := grant(finisher, int64(900+i%3))
		if resp.Granted {
			complete(d, finisher, resp.Cell, resp.Epoch, 1, good(resp.Cell), "")
		} else if !resp.Done {
			clk.advance(11 * time.Second)
		}
		checkInvariants()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	werr := d.Wait(ctx)

	// Replay every lease's completion once more: all must dedupe or go
	// stale, none may re-consume.
	for _, l := range held {
		resp := complete(d, l.worker, l.cell, l.epoch, 1, good(l.cell), "")
		if !resp.Duplicate && !resp.Stale {
			t.Fatalf("seed %d: post-campaign completion of cell %d epoch %d accepted", seed, l.cell, l.epoch)
		}
	}
	checkInvariants()

	// Every cell was consumed exactly once, unless it was poisoned (and Wait
	// names it) or the drain ended the campaign above it.
	skipped := make(map[int]bool)
	var pe *PoisonedError
	switch {
	case errors.As(werr, &pe):
		for _, pc := range pe.Cells {
			skipped[pc.Cell] = true
		}
	case errors.Is(werr, ErrDrained) && drainAt >= 0:
		d.mu.Lock()
		for i := range d.cells {
			skipped[i] = d.cells[i].state != stateDone || i >= d.nextFlush
		}
		d.mu.Unlock()
	case werr != nil:
		t.Fatalf("seed %d: Wait: %v", seed, werr)
	}
	for i := 0; i < cells; i++ {
		want := 1
		if skipped[i] {
			want = 0
		}
		if consumed[i] != want {
			t.Fatalf("seed %d: cell %d (skipped=%v) consumed %d times, want %d", seed, i, skipped[i], consumed[i], want)
		}
	}

	counters, _ := json.Marshal(d.Counters())
	health, _ := json.Marshal(d.Health())
	log := strings.Join(d.Decisions(), "\n") + "\n" + string(health)
	return fmt.Sprintf("%x %s", sha256.Sum256([]byte(log)), counters)
}
