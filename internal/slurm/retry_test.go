package slurm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/retry"
)

// appendRaw writes raw bytes onto the end of a state dir's journal, used to
// fake a torn final line left by a crash mid-append.
func appendRaw(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestRetryGiveUp: a client whose budget is exhausted stops retrying and
// surfaces the BUSY error with its hint.
func TestRetryGiveUp(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{MaxInflight: 1, RetryAfter: time.Millisecond})
	srv.adm.slots <- struct{}{} // permanently saturated: every request sheds
	var sleeps []time.Duration
	cl.Retry = &retry.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Millisecond,
		Multiplier:  2,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	var busy *BusyError
	if _, err := cl.Do(Request{Op: "queue"}); !errors.As(err, &busy) {
		t.Fatalf("error = %v, want BusyError after give-up", err)
	}
	if len(sleeps) != 3 {
		t.Fatalf("slept %d times, want MaxAttempts-1 = 3", len(sleeps))
	}
	// Every sleep honored the server's retry-after floor.
	for i, d := range sleeps {
		if d < time.Millisecond {
			t.Fatalf("sleep %d = %v, below the 1ms retry-after hint", i, d)
		}
	}
}

// TestRetryBusyThenSuccess: a request shed while the server is saturated
// succeeds transparently once capacity frees up.
func TestRetryBusyThenSuccess(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{MaxInflight: 1, RetryAfter: time.Millisecond})
	srv.adm.slots <- struct{}{}
	released := false
	cl.Retry = &retry.Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		Multiplier:  1,
		Sleep: func(time.Duration) {
			if !released {
				<-srv.adm.slots // free the slot after the first shed
				released = true
			}
		},
	}
	if _, err := cl.Do(Request{Op: "queue"}); err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if !released {
		t.Fatal("request never shed; test proved nothing")
	}
}

// TestRetryTransportRedial: a connection killed under an idempotent request
// is transparently re-dialed; a tokened submit retried across the break
// dedupes to the original job.
func TestRetryTransportRedial(t *testing.T) {
	cl, _, _ := overloadServer(t, OverloadConfig{})
	cl.Retry = &retry.Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		Multiplier:  1,
		Sleep:       func(time.Duration) {},
	}
	id, err := cl.SubmitToken("tok-redial", "minife", 1, 1800, 900, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport under the client.
	cl.conn.Close()
	again, err := cl.SubmitToken("tok-redial", "minife", 1, 1800, 900, "a")
	if err != nil {
		t.Fatalf("tokened submit across dead connection: %v", err)
	}
	if again != id {
		t.Fatalf("retried submit created job %d, original was %d", again, id)
	}
	// An untokened submit must NOT be retried over a broken transport —
	// the client cannot know whether the server executed it.
	cl.conn.Close()
	if _, err := cl.Submit("minife", 1, 1800, 900, "b"); err == nil {
		t.Fatal("untokened submit retried across transport failure")
	}
	// The connection is usable again afterwards (readonly ops do redial).
	if _, err := cl.Queue(false); err != nil {
		t.Fatalf("queue after redial: %v", err)
	}
}

// TestIdempotencyAcrossRecovery: submit with a token, crash the controller
// (journal handle abandoned mid-flight as in journal_test.go), restart from
// the same state directory, and retry the submit — the dedupe map must have
// survived via the journal, so no duplicate job appears.
func TestIdempotencyAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()

	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.SubmitToken("tok-crash", "minife", 2, 3600, 1800, "survivor")
	if err != nil {
		t.Fatal(err)
	}
	advance(t, c1, 100)
	// Crash: no Close, no flush beyond the per-op WAL sync.

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	again, err := c2.SubmitToken("tok-crash", "minife", 2, 3600, 1800, "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if again != id {
		t.Fatalf("post-recovery retry created job %d, original was %d", again, id)
	}
	if n := len(c2.Queue()); n != 1 {
		t.Fatalf("queue after recovery + retry = %d jobs, want 1", n)
	}
	// A fresh token still creates fresh work.
	if _, err := c2.SubmitToken("tok-new", "minife", 1, 1800, 900, "new"); err != nil {
		t.Fatal(err)
	}
	if n := len(c2.Queue()); n != 2 {
		t.Fatalf("queue = %d jobs, want 2", n)
	}
}

// TestIdempotencyTornSubmit: if the crash tore the tokened submit's journal
// line (the client never got an ack), recovery drops it and a retry of the
// same token legitimately creates the job.
func TestIdempotencyTornSubmit(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SubmitToken("tok-full", "minife", 1, 1800, 900, "acked"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append of a second tokened submit: a torn,
	// unacknowledged final line.
	appendRaw(t, dir, `{"seq":99,"op":"submit","app":"minife","nodes":1,"token":"tok-to`)

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := len(c2.Queue()); n != 1 {
		t.Fatalf("recovered queue = %d jobs, want 1", n)
	}
	// The torn token was never acknowledged, so its retry must create a
	// new job rather than dedupe against nothing.
	if _, err := c2.SubmitToken("tok-torn", "minife", 1, 1800, 900, "retried"); err != nil {
		t.Fatal(err)
	}
	if n := len(c2.Queue()); n != 2 {
		t.Fatalf("queue after retry = %d jobs, want 2", n)
	}
}
