package fabric

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retry"
)

// fakeClock is a hand-cranked clock for driving lease deadlines without
// sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// collector gathers flushed results and asserts strict index order.
type collector struct {
	mu   sync.Mutex
	t    *testing.T
	rows [][]byte
}

func (c *collector) consume(i int, res []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i != len(c.rows) {
		c.t.Errorf("consume out of order: got index %d, want %d", i, len(c.rows))
	}
	c.rows = append(c.rows, append([]byte(nil), res...))
	return nil
}

func (c *collector) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.rows))
	copy(out, c.rows)
	return out
}

func payload(i int) []byte { return []byte(fmt.Sprintf("cell-%d", i)) }

// newTestDispatcher builds an unlistened dispatcher with a fake clock, so
// tests drive the lease machine directly and deterministically.
func newTestDispatcher(t *testing.T, cells int, mutate func(*Config)) (*Dispatcher, *collector, *fakeClock) {
	t.Helper()
	col := &collector{t: t}
	cfg := Config{
		Cells:           cells,
		Consume:         col.consume,
		LeaseTTL:        10 * time.Second,
		DisconnectGrace: 2 * time.Second,
		Window:          1024,
		SpecMinSamples:  3,
		SpecPercentile:  0.5,
		SpecMultiplier:  2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	d.now = clk.now
	return d, col, clk
}

func mustGrant(t *testing.T, d *Dispatcher, worker string, conn int64) (cell int, epoch int64) {
	t.Helper()
	resp := d.grant(worker, conn)
	if !resp.Granted {
		t.Fatalf("grant to %s refused: %+v", worker, resp)
	}
	return resp.Cell, resp.Epoch
}

// complete submits a completion carrying the checksum a faithful worker would
// attach, so in-process tests exercise the post-verification paths.
func complete(d *Dispatcher, worker string, cell int, epoch, gen int64, row []byte, errStr string) response {
	return d.complete(worker, cell, epoch, gen, row, completionSum(d.specSHAHex, cell, row), errStr)
}

func TestGrantCompleteFlushInOrder(t *testing.T) {
	d, col, _ := newTestDispatcher(t, 4, nil)
	type held struct {
		cell  int
		epoch int64
	}
	var leases []held
	for i := 0; i < 4; i++ {
		c, e := mustGrant(t, d, "w1", 1)
		leases = append(leases, held{c, e})
	}
	// Complete in reverse: nothing may flush until cell 0 lands.
	for i := 3; i >= 0; i-- {
		l := leases[i]
		resp := complete(d, "w1", l.cell, l.epoch, 1, payload(l.cell), "")
		if !resp.OK || resp.Stale || resp.Duplicate {
			t.Fatalf("complete cell %d: %+v", l.cell, resp)
		}
		if i > 0 && len(col.snapshot()) != 0 {
			t.Fatalf("flushed before prefix complete: %d rows", len(col.snapshot()))
		}
	}
	rows := col.snapshot()
	if len(rows) != 4 {
		t.Fatalf("flushed %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if !bytes.Equal(r, payload(i)) {
			t.Fatalf("row %d = %q, want %q", i, r, payload(i))
		}
	}
	if err := d.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestWindowGatesFreshGrants(t *testing.T) {
	d, _, _ := newTestDispatcher(t, 10, func(c *Config) { c.Window = 2 })
	c0, _ := mustGrant(t, d, "w1", 1)
	c1, e1 := mustGrant(t, d, "w1", 1)
	if c0 != 0 || c1 != 1 {
		t.Fatalf("granted cells %d,%d, want 0,1", c0, c1)
	}
	// Window [0,2) is fully leased: a third request must wait, not get cell 2.
	if resp := d.grant("w2", 2); resp.Granted {
		t.Fatalf("grant beyond window: %+v", resp)
	}
	// Completing cell 1 does not move the prefix (0 still open) — still gated.
	complete(d, "w1", c1, e1, 1, payload(1), "")
	if resp := d.grant("w2", 2); resp.Granted {
		t.Fatalf("grant while prefix open: %+v", resp)
	}
}

func TestLeaseExpiryRequeuesWithHigherEpoch(t *testing.T) {
	d, col, clk := newTestDispatcher(t, 1, nil)
	cell, epoch1 := mustGrant(t, d, "w1", 1)
	clk.advance(11 * time.Second) // past LeaseTTL
	cell2, epoch2 := mustGrant(t, d, "w2", 2)
	if cell2 != cell {
		t.Fatalf("requeued grant got cell %d, want %d", cell2, cell)
	}
	if epoch2 <= epoch1 {
		t.Fatalf("epoch not monotone across requeue: %d then %d", epoch1, epoch2)
	}
	// The fenced-off original's completion is stale and must not flush.
	if resp := complete(d, "w1", cell, epoch1, 1, payload(cell), ""); !resp.Stale {
		t.Fatalf("stale completion accepted: %+v", resp)
	}
	if len(col.snapshot()) != 0 {
		t.Fatal("stale completion reached the consumer")
	}
	// The original's heartbeat answers fenced (self-fence signal).
	if resp := d.heartbeat("w1", cell, epoch1, 1, 1); !resp.Fenced {
		t.Fatalf("heartbeat on reclaimed lease not fenced: %+v", resp)
	}
	// The new lease completes exactly once.
	if resp := complete(d, "w2", cell, epoch2, 1, payload(cell), ""); resp.Stale || resp.Duplicate {
		t.Fatalf("live completion rejected: %+v", resp)
	}
	if got := len(col.snapshot()); got != 1 {
		t.Fatalf("flushed %d rows, want 1", got)
	}
	ctrs := d.Counters()
	if ctrs.Requeues != 1 || ctrs.RequeueExpiry != 1 || ctrs.Stale != 1 || ctrs.Fenced != 1 {
		t.Fatalf("counters = %+v", ctrs)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 1, nil)
	cell, epoch := mustGrant(t, d, "w1", 1)
	for i := 0; i < 5; i++ {
		clk.advance(8 * time.Second) // under TTL each step, far past it in sum
		if resp := d.heartbeat("w1", cell, epoch, 1, 1); resp.Fenced {
			t.Fatalf("heartbeat %d fenced a live lease", i)
		}
	}
	if resp := complete(d, "w1", cell, epoch, 1, payload(cell), ""); resp.Stale {
		t.Fatal("completion stale despite heartbeats")
	}
}

func TestDisconnectGraceThenReclaim(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 2, nil)
	cell, epoch := mustGrant(t, d, "w1", 1)
	d.dropConn(1)
	// Within the grace the lease survives: a rejoin heartbeat restores it.
	clk.advance(time.Second)
	if resp := d.heartbeat("w1", cell, epoch, 1, 7); resp.Fenced {
		t.Fatal("rejoin heartbeat within grace was fenced")
	}
	// Drop again, let the grace lapse: now the cell is reclaimed.
	d.dropConn(7)
	clk.advance(3 * time.Second)
	c2, e2 := mustGrant(t, d, "w2", 2)
	if c2 != cell || e2 <= epoch {
		t.Fatalf("after grace: got cell %d epoch %d, want cell %d epoch > %d", c2, e2, cell, epoch)
	}
	ctrs := d.Counters()
	if ctrs.RequeueDisconnect != 1 {
		t.Fatalf("RequeueDisconnect = %d, want 1 (counters %+v)", ctrs.RequeueDisconnect, ctrs)
	}
}

func TestSpeculationAndDedupe(t *testing.T) {
	d, col, clk := newTestDispatcher(t, 4, nil)
	// Straggler takes cell 0; three fast completions build the runtime sample.
	strag, stragEpoch := mustGrant(t, d, "w-slow", 1)
	for i := 0; i < 3; i++ {
		c, e := mustGrant(t, d, "w-fast", 2)
		clk.advance(100 * time.Millisecond)
		complete(d, "w-fast", c, e, 1, payload(c), "")
	}
	// No pending cells left; idle worker + aged straggler ⇒ speculation.
	// Keep the straggler's lease alive with a heartbeat first.
	d.heartbeat("w-slow", strag, stragEpoch, 1, 1)
	clk.advance(5 * time.Second)
	d.heartbeat("w-slow", strag, stragEpoch, 1, 1)
	resp := d.grant("w-spec", 3)
	if !resp.Granted || !resp.Speculative || resp.Cell != strag {
		t.Fatalf("expected speculative duplicate of cell %d, got %+v", strag, resp)
	}
	if resp.Epoch <= stragEpoch {
		t.Fatalf("speculative epoch %d not above original %d", resp.Epoch, stragEpoch)
	}
	// No second duplicate of the same cell.
	if r2 := d.grant("w-spec2", 4); r2.Granted {
		t.Fatalf("third lease granted on one cell: %+v", r2)
	}
	// Speculative copy completes first and wins; the straggler dedupes.
	if r := complete(d, "w-spec", strag, resp.Epoch, 1, payload(strag), ""); r.Stale || r.Duplicate {
		t.Fatalf("speculative completion rejected: %+v", r)
	}
	if r := complete(d, "w-slow", strag, stragEpoch, 1, payload(strag), ""); !r.Duplicate {
		t.Fatalf("original completion not deduped: %+v", r)
	}
	if got := len(col.snapshot()); got != 4 {
		t.Fatalf("flushed %d rows, want 4", got)
	}
	ctrs := d.Counters()
	if ctrs.SpeculativeGrants != 1 || ctrs.SpeculativeWins != 1 || ctrs.Deduped != 1 {
		t.Fatalf("counters = %+v", ctrs)
	}
	if err := d.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestCellFailurePoisonsAfterDistinctWorkers drives one cell through failures
// on PoisonAfter distinct workers and checks the campaign completes around it:
// every healthy row is delivered in order, the poisoned index is omitted, and
// Wait reports the gap as a *PoisonedError instead of a hard failure.
func TestCellFailurePoisonsAfterDistinctWorkers(t *testing.T) {
	var mu sync.Mutex
	var flushed []int
	d, _, clk := newTestDispatcher(t, 5, func(c *Config) {
		c.PoisonAfter = 2
		c.QuarantineAfter = 100 // keep failing workers leasable for this test
		c.RetryBackoff = time.Millisecond
		// The shared collector demands gapless indices; this campaign
		// legitimately skips the poisoned cell, so record indices instead.
		c.Consume = func(i int, res []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if len(flushed) > 0 && i <= flushed[len(flushed)-1] {
				t.Errorf("consume out of order: %d after %d", i, flushed[len(flushed)-1])
			}
			flushed = append(flushed, i)
			return nil
		}
	})
	// Cell 0 fails on two distinct workers; between attempts the retry
	// backoff must lapse before the cell is grantable again.
	c0, e0 := mustGrant(t, d, "w1", 1)
	if c0 != 0 {
		t.Fatalf("first grant = cell %d, want 0", c0)
	}
	complete(d, "w1", c0, e0, 1, nil, "boom")
	clk.advance(10 * time.Millisecond)
	c0b, e0b := mustGrant(t, d, "w2", 2)
	if c0b != 0 || e0b <= e0 {
		t.Fatalf("requeued grant = cell %d epoch %d, want cell 0 epoch > %d", c0b, e0b, e0)
	}
	complete(d, "w2", c0b, e0b, 1, nil, "boom again")

	// The rest of the grid completes normally around the poisoned cell.
	for i := 1; i < 5; i++ {
		c, e := mustGrant(t, d, "w1", 1)
		if c != i {
			t.Fatalf("grant = cell %d, want %d", c, i)
		}
		complete(d, "w1", c, e, 1, payload(c), "")
	}

	err := d.Wait(context.Background())
	var perr *PoisonedError
	if !errors.As(err, &perr) {
		t.Fatalf("Wait = %v, want *PoisonedError", err)
	}
	if len(perr.Cells) != 1 || perr.Cells[0].Cell != 0 {
		t.Fatalf("poisoned cells = %+v, want exactly cell 0", perr.Cells)
	}
	// Output skips the poisoned index but keeps every other row in order.
	mu.Lock()
	got := append([]int(nil), flushed...)
	mu.Unlock()
	if len(got) != 4 || got[0] != 1 {
		t.Fatalf("flushed indices %v, want [1 2 3 4] (poisoned cell omitted)", got)
	}
	ctrs := d.Counters()
	if ctrs.Failed != 2 || ctrs.Poisoned != 1 {
		t.Fatalf("Failed=%d Poisoned=%d, want 2 and 1 (counters %+v)", ctrs.Failed, ctrs.Poisoned, ctrs)
	}
	h := d.Health()
	if h.Poisoned != 1 || len(h.PoisonedCells) != 1 || h.PoisonedCells[0] != 0 {
		t.Fatalf("health poison view = %+v", h)
	}
	if !d.grant("w3", 3).Done {
		t.Fatal("lease response does not tell workers the campaign is done")
	}
}

// TestRepeatFailuresOnOneWorkerHitRetryCap checks the absolute retry cap: a
// cell failing over and over on the same worker cannot dodge poisoning by
// never reaching PoisonAfter distinct workers.
func TestRepeatFailuresOnOneWorkerHitRetryCap(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 1, func(c *Config) {
		c.PoisonAfter = 3
		c.MaxCellRetries = 4
		c.QuarantineAfter = 100
		c.RetryBackoff = time.Millisecond
	})
	for i := 0; i < 4; i++ {
		clk.advance(time.Second) // clear any retry backoff
		c, e := mustGrant(t, d, "w1", 1)
		if c != 0 {
			t.Fatalf("attempt %d granted cell %d, want 0", i, c)
		}
		complete(d, "w1", c, e, 1, nil, "flaky")
	}
	err := d.Wait(context.Background())
	var perr *PoisonedError
	if !errors.As(err, &perr) || len(perr.Cells) != 1 {
		t.Fatalf("Wait = %v, want single-cell *PoisonedError", err)
	}
	if got := d.Counters().CellRetries; got != 3 {
		t.Fatalf("CellRetries = %d, want 3 (4th failure poisons instead of requeueing)", got)
	}
}

func TestConsumeErrorAbortsCampaign(t *testing.T) {
	wantErr := errors.New("disk full")
	d, err := NewDispatcher(Config{
		Cells:   2,
		Consume: func(i int, res []byte) error { return wantErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	cell, epoch := mustGrant(t, d, "w1", 1)
	complete(d, "w1", cell, epoch, 1, payload(cell), "")
	if got := d.Wait(context.Background()); !errors.Is(got, wantErr) {
		t.Fatalf("Wait = %v, want consume error", got)
	}
}

func TestGoodbyeRequeuesImmediately(t *testing.T) {
	d, _, _ := newTestDispatcher(t, 1, nil)
	cell, epoch := mustGrant(t, d, "w1", 1)
	d.goodbye("w1", 1)
	// No clock advance needed: the cell is grantable again at once.
	c2, e2 := mustGrant(t, d, "w2", 2)
	if c2 != cell || e2 <= epoch {
		t.Fatalf("after goodbye: cell %d epoch %d, want cell %d epoch > %d", c2, e2, cell, epoch)
	}
}

// TestWorkerDispatcherEndToEnd runs a real dispatcher and two workers over
// TCP: the full protocol path, ending with both workers observing Done.
func TestWorkerDispatcherEndToEnd(t *testing.T) {
	const n = 20
	col := &collector{t: t}
	d, err := NewDispatcher(Config{
		Cells:    n,
		Spec:     []byte(`{"kind":"test"}`),
		Consume:  col.consume,
		LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec, cells, err := FetchSpec(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cells != n || string(spec) != `{"kind":"test"}` {
		t.Fatalf("FetchSpec = %q cells=%d", spec, cells)
	}

	fn := func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
		progress(1)
		return payload(cell), nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{ID: fmt.Sprintf("w%d", i), Addr: addr, Fn: fn})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	wg.Wait()
	rows := col.snapshot()
	if len(rows) != n {
		t.Fatalf("flushed %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if !bytes.Equal(r, payload(i)) {
			t.Fatalf("row %d = %q", i, r)
		}
	}
}

// TestWorkerDrainFinishesInFlightCell: a drained worker completes the cell
// it holds, says goodbye, and exits; the health snapshot reports draining.
func TestWorkerDrainFinishesInFlightCell(t *testing.T) {
	col := &collector{t: t}
	d, err := NewDispatcher(Config{Cells: 2, Consume: col.consume})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	inCell := make(chan struct{})
	release := make(chan struct{})
	var w *Worker
	w, err = NewWorker(WorkerConfig{
		ID: "drainer", Addr: addr,
		Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
			if cell == 0 {
				close(inCell)
				<-release
			}
			return payload(cell), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(context.Background()) }()

	<-inCell // worker is mid-cell
	w.Drain()
	if s := w.Snapshot(); s.Health != HealthDraining {
		t.Fatalf("health = %q mid-drain, want draining", s.Health)
	}
	close(release)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	// The in-flight cell was completed, not abandoned.
	if got := d.Counters().Completed; got != 1 {
		t.Fatalf("completed = %d, want 1 (the in-flight cell)", got)
	}
	if w.Snapshot().CellsDone != 1 {
		t.Fatalf("worker cells done = %d, want 1", w.Snapshot().CellsDone)
	}
}

// TestWorkerKilledDuringBackoffNeverDialsAgain: a Kill (or cancel) that lands
// while the worker waits out a reconnect backoff ends the request there. The
// worker used to check before the wait and not after it, so it dialed again,
// helloed, took a lease and ran the cell on a cancelled context — leaving the
// dispatcher a lease that could only die by disconnect grace and a strike
// against the worker.
func TestWorkerKilledDuringBackoffNeverDialsAgain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns, fnRuns atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) == 1 {
				c.Close() // the first hello fails: the worker goes into its backoff
				continue
			}
			// Any later connection is the bug. Answer it the way a dispatcher
			// would — hello, then a grant — so the whole of it shows.
			go func() {
				defer c.Close()
				for sc := bufio.NewScanner(c); sc.Scan(); {
					reply := `{"ok":true,"cells":1,"gen":1,"heartbeat_ms":1000}`
					if bytes.Contains(sc.Bytes(), []byte(`"lease"`)) {
						reply = `{"ok":true,"granted":true,"cell":0,"epoch":1,"gen":1}`
					}
					fmt.Fprintln(c, reply)
				}
			}()
		}
	}()

	var w *Worker
	w, err = NewWorker(WorkerConfig{
		ID: "killed-in-backoff", Addr: ln.Addr().String(),
		Retry: &retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			Multiplier:  1,
			Sleep:       func(time.Duration) { w.Kill() },
		},
		Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
			fnRuns.Add(1)
			return payload(cell), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(context.Background()) }()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after Kill = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker did not exit")
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("worker opened %d connections, want 1: it dialed again after Kill", n)
	}
	if n := fnRuns.Load(); n != 0 {
		t.Errorf("cell function ran %d times after Kill, want 0", n)
	}
}

func TestAggregateHealth(t *testing.T) {
	rep := AggregateHealth([]WorkerSnapshot{
		{ID: "a", Health: HealthOK, CellsDone: 3, LeaseCell: -1},
		{ID: "b", Health: HealthFenced, CellsDone: 2, LeaseCell: 7, LeaseEpoch: 4},
	})
	if rep.Health != HealthFenced || rep.Fabric.CellsDone != 5 || rep.Fabric.LeaseCell != 7 {
		t.Fatalf("report = %+v", rep)
	}
	rep = AggregateHealth([]WorkerSnapshot{
		{ID: "a", Health: HealthDraining},
		{ID: "b", Health: HealthFenced},
	})
	if rep.Health != HealthDraining {
		t.Fatalf("draining must dominate, got %q", rep.Health)
	}
}

// NewDispatcher refuses the containment knobs Config.Validate refuses — a
// verification fraction that is NaN or outside [0, 1], a negative poison
// threshold — rather than clamping them, and takes the bounds themselves.
func TestNewDispatcherRefusesInvalidContainment(t *testing.T) {
	consume := func(int, []byte) error { return nil }
	for _, tc := range []struct {
		verify float64
		poison int
		ok     bool
	}{
		{0, 0, true}, {1, 0, true}, {0.25, 2, true},
		{math.NaN(), 0, false}, {-0.01, 0, false}, {1.01, 0, false}, {0, -1, false},
	} {
		cfg := Config{Cells: 1, Consume: consume, VerifyFraction: tc.verify, PoisonAfter: tc.poison}
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(VerifyFraction %g, PoisonAfter %d) = %v, want accepted %v", tc.verify, tc.poison, err, tc.ok)
		}
		d, err := NewDispatcher(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("NewDispatcher(VerifyFraction %g, PoisonAfter %d) = %v, want accepted %v", tc.verify, tc.poison, err, tc.ok)
		}
		if d != nil {
			d.Close()
		}
	}
}
