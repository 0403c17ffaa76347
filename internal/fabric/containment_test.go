package fabric

// Unit tests for the integrity & containment layer (DESIGN §14): checksum
// rejection, strike accounting and quarantine, retry backoff, sampled
// redundant verification, and the journal's containment records. The seeded
// end-to-end chaos run with actively corrupt workers lives in
// corrupt_chaos_test.go.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/retry"
	"repro/internal/vfs"
)

// TestChecksumRejectQuarantinesSender: a completion whose checksum does not
// match its payload is rejected before dedup, the sender is quarantined on
// the spot, and the cell survives to be completed honestly by someone else.
func TestChecksumRejectQuarantinesSender(t *testing.T) {
	d, col, _ := newTestDispatcher(t, 2, nil)
	cell, epoch := mustGrant(t, d, "w-evil", 1)

	good := payload(cell)
	resp := d.complete("w-evil", cell, epoch, 1, good, completionSum(d.specSHAHex, cell, good)^0xdeadbeef, "")
	if !resp.Rejected {
		t.Fatalf("corrupt completion not rejected: %+v", resp)
	}
	if got := len(col.snapshot()); got != 0 {
		t.Fatalf("corrupt completion reached the consumer (%d rows)", got)
	}
	ctrs := d.Counters()
	if ctrs.ChecksumRejects != 1 || ctrs.QuarantinedWorkers != 1 {
		t.Fatalf("ChecksumRejects=%d QuarantinedWorkers=%d, want 1 and 1 (counters %+v)",
			ctrs.ChecksumRejects, ctrs.QuarantinedWorkers, ctrs)
	}
	// The offender gets no new leases — only an idle-poll answer.
	if r := d.grant("w-evil", 1); r.Granted || !r.Quarantined {
		t.Fatalf("quarantined worker still leasable: %+v", r)
	}
	h := d.Health()
	if len(h.Quarantined) != 1 || h.Quarantined[0] != "w-evil" || h.ChecksumRejects != 1 {
		t.Fatalf("health = %+v, want w-evil quarantined with 1 checksum reject", h)
	}
	// The fenced lease requeued: an honest worker finishes the campaign.
	for i := 0; i < 2; i++ {
		c, e := mustGrant(t, d, "w-good", 2)
		complete(d, "w-good", c, e, 1, payload(c), "")
	}
	if err := d.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := len(col.snapshot()); got != 2 {
		t.Fatalf("flushed %d rows, want 2", got)
	}
}

// TestQuarantineCooldownReadmits: with a cooldown configured, a quarantined
// worker is readmitted once it elapses — and the release is counted and
// journal-visible, not silent.
func TestQuarantineCooldownReadmits(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 2, func(c *Config) {
		c.QuarantineCooldown = time.Minute
	})
	cell, epoch := mustGrant(t, d, "w1", 1)
	d.complete("w1", cell, epoch, 1, payload(cell), 0, "") // wrong sum → quarantine
	if r := d.grant("w1", 1); !r.Quarantined {
		t.Fatalf("not quarantined after checksum reject: %+v", r)
	}
	clk.advance(59 * time.Second)
	if r := d.grant("w1", 1); !r.Quarantined {
		t.Fatalf("released before cooldown elapsed: %+v", r)
	}
	clk.advance(2 * time.Second)
	if r := d.grant("w1", 1); !r.Granted {
		t.Fatalf("not readmitted after cooldown: %+v", r)
	}
	if got := d.Counters().QuarantineReleases; got != 1 {
		t.Fatalf("QuarantineReleases = %d, want 1", got)
	}
}

// TestStrikesAccumulateAndDecay: lease expiries charge one strike each and
// quarantine at the threshold, while accepted completions decay the score so
// an honest-but-unlucky worker drifts back to a clean record.
func TestStrikesAccumulateAndDecay(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 8, func(c *Config) {
		c.QuarantineAfter = 2
	})
	// One expiry, then an accepted completion: score returns to zero.
	c0, _ := mustGrant(t, d, "w1", 1)
	clk.advance(11 * time.Second)
	c0b, e0b := mustGrant(t, d, "w1", 1) // triggers the sweep; w1 at 1 strike
	if c0b != c0 {
		t.Fatalf("sweep did not requeue cell %d (got %d)", c0, c0b)
	}
	if w := d.workers["w1"]; w == nil || w.strikes != 1 {
		t.Fatalf("after one expiry: %+v, want 1 strike", w)
	}
	complete(d, "w1", c0b, e0b, 1, payload(c0b), "")
	if w := d.workers["w1"]; w.strikes != 0 {
		t.Fatalf("strike did not decay on accepted completion: %+v", w)
	}
	// Two consecutive expiries with nothing accepted: quarantined.
	for i := 0; i < 2; i++ {
		mustGrant(t, d, "w1", 1)
		clk.advance(11 * time.Second)
		mustGrant(t, d, "w2", 2) // sweep trigger; w2 completes nothing
	}
	if r := d.grant("w1", 1); !r.Quarantined {
		t.Fatalf("two unredeemed expiries did not quarantine: %+v (rec %+v)", r, d.workers["w1"])
	}
}

// TestRetryBackoffGatesRequeuedCell: a failed cell requeues behind an
// exponential backoff, so a deterministic crasher cannot hot-loop through
// the fleet's lease slots.
func TestRetryBackoffGatesRequeuedCell(t *testing.T) {
	d, _, clk := newTestDispatcher(t, 1, func(c *Config) {
		c.RetryBackoff = time.Second
		c.PoisonAfter = 100
		c.MaxCellRetries = 100
		c.QuarantineAfter = 100
	})
	cell, epoch := mustGrant(t, d, "w1", 1)
	complete(d, "w1", cell, epoch, 1, nil, "boom")
	if r := d.grant("w2", 2); r.Granted {
		t.Fatalf("failed cell regranted inside backoff: %+v", r)
	}
	clk.advance(1500 * time.Millisecond)
	if r := d.grant("w2", 2); !r.Granted {
		t.Fatalf("failed cell not regranted after backoff: %+v", r)
	}
	// Second failure doubles the window: 2s.
	complete(d, "w2", cell, d.cells[cell].leases[0].epoch, 1, nil, "boom")
	clk.advance(1500 * time.Millisecond)
	if r := d.grant("w1", 1); r.Granted {
		t.Fatalf("second backoff not doubled: %+v", r)
	}
	clk.advance(time.Second)
	if r := d.grant("w1", 1); !r.Granted {
		t.Fatalf("cell not regranted after doubled backoff: %+v", r)
	}
}

// TestVerifySampleStable pins the redundant-verification sample. It is a pure
// function of (campaign identity, VerifySeed, cell) and "stable across
// restarts" by contract — a dispatcher resuming a journal written by an older
// build must draw the same cells — so the table below, recorded before the
// hash moved to hash/fnv, may never change.
func TestVerifySampleStable(t *testing.T) {
	const want = "" + // cells 0…255, x = sampled
		"xx............x.xx............xx.x..........x.xx............x.xx" +
		"............xxxx..........x.xx.x..........x.xx............xxxx.." +
		"........x.xx.x..........x.xx..........x.xxxx..........xxxx.x...." +
		"......xxxx..........x.xxxx..........xxxx.x..........xxxx........"
	d, _, _ := newTestDispatcher(t, 256, func(c *Config) {
		c.Spec = []byte(`{"grid":"verify-sample"}`)
		c.VerifySeed = 7
		c.VerifyFraction = 0.25
	})
	got := make([]byte, 256)
	for cell := range got {
		got[cell] = '.'
		if d.verifySampled(cell) {
			got[cell] = 'x'
		}
	}
	if string(got) != want {
		t.Fatalf("verify sample moved:\n got %s\nwant %s", got, want)
	}
}

// TestVerifyMatchAccepts: a sampled cell is executed on two distinct workers
// and accepted when the bytes agree — and the same worker is never allowed
// to confirm itself.
func TestVerifyMatchAccepts(t *testing.T) {
	d, col, _ := newTestDispatcher(t, 1, func(c *Config) {
		c.VerifyFraction = 1
	})
	cell, epoch := mustGrant(t, d, "w1", 1)
	if r := complete(d, "w1", cell, epoch, 1, payload(cell), ""); !r.OK || r.Duplicate || r.Stale {
		t.Fatalf("first candidate refused: %+v", r)
	}
	if got := len(col.snapshot()); got != 0 {
		t.Fatal("sampled cell flushed on a single unconfirmed execution")
	}
	// The contributor cannot be its own confirmation.
	if r := d.grant("w1", 1); r.Granted {
		t.Fatalf("verify contributor regranted its own cell: %+v", r)
	}
	c2, e2 := mustGrant(t, d, "w2", 2)
	if c2 != cell {
		t.Fatalf("confirming grant = cell %d, want %d", c2, cell)
	}
	complete(d, "w2", c2, e2, 1, payload(cell), "")
	if err := d.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	rows := col.snapshot()
	if len(rows) != 1 || !bytes.Equal(rows[0], payload(cell)) {
		t.Fatalf("rows = %q, want one row %q", rows, payload(cell))
	}
	ctrs := d.Counters()
	if ctrs.VerifySampled != 1 || ctrs.VerifyMatches != 1 || ctrs.VerifyDivergence != 0 {
		t.Fatalf("verify counters = %+v", ctrs)
	}
}

// TestVerifyDivergenceMajorityWins: two diverging executions trigger a third;
// the majority row is accepted and the odd worker out is quarantined.
func TestVerifyDivergenceMajorityWins(t *testing.T) {
	d, col, _ := newTestDispatcher(t, 1, func(c *Config) {
		c.VerifyFraction = 1
	})
	wrong := []byte("subtly-wrong-bytes")
	c0, e0 := mustGrant(t, d, "w1", 1)
	complete(d, "w1", c0, e0, 1, payload(c0), "")
	c1, e1 := mustGrant(t, d, "w-liar", 2)
	// The liar's row checksums correctly — it computed the wrong bytes, the
	// exact failure mode checksums cannot see.
	if r := complete(d, "w-liar", c1, e1, 1, wrong, ""); r.Rejected {
		t.Fatalf("honestly-checksummed wrong bytes rejected at the checksum gate: %+v", r)
	}
	if got := d.Counters().VerifyDivergence; got != 1 {
		t.Fatalf("VerifyDivergence = %d, want 1", got)
	}
	c2, e2 := mustGrant(t, d, "w3", 3)
	complete(d, "w3", c2, e2, 1, payload(c2), "")
	if err := d.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	rows := col.snapshot()
	if len(rows) != 1 || !bytes.Equal(rows[0], payload(0)) {
		t.Fatalf("rows = %q, want the majority row %q", rows, payload(0))
	}
	h := d.Health()
	if len(h.Quarantined) != 1 || h.Quarantined[0] != "w-liar" {
		t.Fatalf("quarantined = %v, want [w-liar]", h.Quarantined)
	}
}

// TestVerifyThreeWayDisagreementPoisons: three distinct rows leave no
// majority to trust, so the cell is poisoned rather than guessed at.
func TestVerifyThreeWayDisagreementPoisons(t *testing.T) {
	d, col, _ := newTestDispatcher(t, 1, func(c *Config) {
		c.VerifyFraction = 1
		c.QuarantineAfter = 100
	})
	for i, w := range []string{"w1", "w2", "w3"} {
		c, e := mustGrant(t, d, w, int64(i+1))
		complete(d, w, c, e, 1, []byte{byte(i)}, "")
	}
	err := d.Wait(context.Background())
	var perr *PoisonedError
	if !errors.As(err, &perr) || len(perr.Cells) != 1 {
		t.Fatalf("Wait = %v, want single-cell *PoisonedError", err)
	}
	if got := len(col.snapshot()); got != 0 {
		t.Fatalf("a disputed row reached the consumer (%d rows)", got)
	}
}

// TestJournalContainmentRoundTrip: poison, quarantine, and unquarantine
// records survive a journal reopen — a hostile worker cannot launder its
// record (nor a bad cell its budget) by crashing the dispatcher.
func TestJournalContainmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contain.journal")
	j, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Kind: "cell", Cell: 0, Row: rowBytes(0)},
		{Kind: "poison", Cell: 5, Err: "boom on 2 workers"},
		{Kind: "quarantine", Worker: "w-evil", Reason: "checksum-reject", Strikes: 3},
		{Kind: "quarantine", Worker: "w-flaky", Reason: "lease-expiry", Strikes: 3},
		{Kind: "unquarantine", Worker: "w-flaky"},
	} {
		if err := j.appendRecord(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Resumed || len(rec.Rows) != 1 {
		t.Fatalf("resume: %+v", rec)
	}
	if got := rec.Poisoned[5]; got != "boom on 2 workers" || len(rec.Poisoned) != 1 {
		t.Fatalf("Poisoned = %v", rec.Poisoned)
	}
	if got := rec.Quarantined["w-evil"]; got != "checksum-reject" || len(rec.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v (w-flaky's release must have erased it)", rec.Quarantined)
	}
}

// TestJournalRefusesContainmentConflicts: a journal asserting both DONE and
// POISONED for one cell is lying about history — every such shape refuses to
// resume as corruption rather than guessing which record to honour.
func TestJournalRefusesContainmentConflicts(t *testing.T) {
	cases := []struct {
		name string
		recs []journalRecord
	}{
		{"poison-after-done", []journalRecord{
			{Kind: "cell", Cell: 3, Row: rowBytes(3)},
			{Kind: "poison", Cell: 3, Err: "x"},
		}},
		{"done-after-poison", []journalRecord{
			{Kind: "poison", Cell: 3, Err: "x"},
			{Kind: "cell", Cell: 3, Row: rowBytes(3)},
		}},
		{"duplicate-poison", []journalRecord{
			{Kind: "poison", Cell: 3, Err: "x"},
			{Kind: "poison", Cell: 3, Err: "y"},
		}},
		{"poison-out-of-range", []journalRecord{
			{Kind: "poison", Cell: 99, Err: "x"},
		}},
		{"anonymous-quarantine", []journalRecord{
			{Kind: "quarantine", Reason: "x"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.journal")
			j, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.recs {
				if err := j.appendRecord(rec, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16); !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("open = %v, want ErrJournalCorrupt", err)
			}
		})
	}
}

// TestWorkerMaxReconnectGivesUp: with a reconnect budget set, a worker whose
// dispatcher is permanently gone exits with ErrDispatcherUnreachable after
// that many dead rounds, instead of looping forever.
func TestWorkerMaxReconnectGivesUp(t *testing.T) {
	// Bind-then-close: a port with nothing listening, every dial refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w, err := NewWorker(WorkerConfig{
		ID:           "w-doomed",
		Addr:         addr,
		MaxReconnect: 3,
		Retry: &retry.Policy{
			MaxAttempts: 2,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
			Multiplier:  1,
			Rand:        func() float64 { return 0.5 },
			Sleep:       func(time.Duration) {},
		},
		Fn: func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
			return nil, errors.New("unreachable: no lease can ever be granted")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDispatcherUnreachable) {
			t.Fatalf("Run = %v, want ErrDispatcherUnreachable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never gave up on the dead dispatcher")
	}
}
