package slurm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/acct"
)

// snapshot captures everything a restarted controller must reproduce.
type ctlState struct {
	Now     float64
	Queue   []JobInfo
	Nodes   []NodeInfo
	History []JobInfo
}

func stateOf(c *Controller) ctlState {
	return ctlState{
		Now:     float64(c.Now()),
		Queue:   c.Queue(),
		Nodes:   c.Nodes(),
		History: c.History(),
	}
}

// driveWorkload runs a representative operation mix: submissions, time
// advancement, cancellation, drain/resume, forced node failure and repair,
// and a job requeue.
func driveWorkload(t *testing.T, c *Controller) {
	t.Helper()
	id1, err := c.Submit("minife", 2, 3600, 1800, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("gtc", 2, 3600, 2400, "b"); err != nil {
		t.Fatal(err)
	}
	id3, err := c.Submit("milc", 4, 7200, 3600, "c")
	if err != nil {
		t.Fatal(err)
	}
	advance(t, c, 300)
	if err := c.Cancel(id3); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainNode(3); err != nil {
		t.Fatal(err)
	}
	advance(t, c, 200)
	if err := c.ResumeNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Requeue(id1); err != nil {
		t.Fatal(err)
	}
	if err := c.DownNode(0); err != nil {
		t.Fatal(err)
	}
	advance(t, c, 100)
	if err := c.UpNode(0); err != nil {
		t.Fatal(err)
	}
	advance(t, c, 500)
}

// TestJournalCrashRecovery kills a journaled controller without any shutdown
// (handle simply abandoned, as in a crash) and verifies a fresh controller
// opened on the same state directory replays to the identical queue, node,
// history, and clock state — then keeps working.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()

	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, c1)
	want := stateOf(c1)
	// Crash: no Close, no flush beyond the per-op WAL sync.

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := stateOf(c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}

	// The recovered controller must accept new work and stay journaled.
	if _, err := c2.Submit("minife", 1, 1800, 900, "post-crash"); err != nil {
		t.Fatal(err)
	}
	drain(t, c2)
	post := stateOf(c2)

	c3, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := stateOf(c3); !reflect.DeepEqual(got, post) {
		t.Fatalf("second recovery differs:\n got %+v\nwant %+v", got, post)
	}
}

// TestJournalSnapshotCompaction verifies that crossing the snapshot
// threshold folds the journal into snapshot.jsonl, truncates the journal,
// and that recovery from the compacted pair is still exact.
func TestJournalSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()

	c1, err := OpenJournaled(cfg, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, c1) // well past 4 ops
	want := stateOf(c1)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.Stat(filepath.Join(dir, "snapshot.jsonl"))
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if snap.Size() == 0 {
		t.Fatal("snapshot is empty")
	}
	jr, err := os.Stat(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if jr.Size() >= snap.Size() {
		t.Fatalf("journal (%d bytes) not compacted into snapshot (%d bytes)",
			jr.Size(), snap.Size())
	}

	c2, err := OpenJournaled(cfg, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := stateOf(c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction recovery differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalTornFinalLine: a crash mid-append leaves a half-written last
// line; recovery must drop it and succeed. Corruption before the final line
// must error instead.
func TestJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit("minife", 1, 1800, 900, "x"); err != nil {
		t.Fatal(err)
	}
	want := stateOf(c1)

	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"op":"adv`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatalf("torn final line not tolerated: %v", err)
	}
	defer c2.Close()
	if got := stateOf(c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery with torn tail differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalFaultTrailAudit: completions are journaled as embedded
// acct.Record audit entries, including failure fields.
func TestJournalFaultTrailAudit(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit("minife", 1, 3600, 1800, "audited")
	if err != nil {
		t.Fatal(err)
	}
	advance(t, c, 100)
	if err := c.Requeue(id); err != nil {
		t.Fatal(err)
	}
	drain(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	scan := scanFile(readFileT(t, journalFile(dir)), journalFile(dir), false)
	if len(scan.Damage) > 0 {
		t.Fatalf("journal damaged: %+v", scan.Damage[0])
	}
	entries := scan.entries
	var recs []acct.Record
	for _, e := range entries {
		if e.Op == "record" && e.Record != nil {
			recs = append(recs, *e.Record)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.JobID != int64(id) || r.State != "FINISHED" {
		t.Fatalf("audit record = %+v", r)
	}
	if r.Requeues != 1 || r.Lost <= 0 {
		t.Fatalf("audit record missing failure history: %+v", r)
	}
}
