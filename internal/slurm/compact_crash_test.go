package slurm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Crash-during-compact property test: compact() has three externally
// distinguishable crash points — before the snapshot rename, after the
// rename but before the journal truncation, and after the truncation — and
// recovery must replay the identical state from each. The middle window is
// the subtle one: the snapshot already holds the journal's entries AND the
// journal still holds them, so recovery must drop the overlap instead of
// applying those operations twice.

// recoverState reopens a journal directory and returns the replayed state.
func recoverState(t *testing.T, cfg Config, dir string) ctlState {
	t.Helper()
	c, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	defer c.Close()
	return stateOf(c)
}

func TestCompactCrashEveryStep(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c1, err := OpenJournaled(cfg, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, c1) // enough operations to compact at least once
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapshotFile(dir))
	if err != nil || len(snap) == 0 {
		t.Fatalf("workload left no snapshot (err %v): need snapshot+journal to exercise the overlap", err)
	}
	tail, err := os.ReadFile(journalFile(dir))
	if err != nil || len(tail) == 0 {
		t.Fatalf("workload left no journal tail (err %v): need snapshot+journal to exercise the overlap", err)
	}

	// The reference: recovery of the untouched pair, i.e. no crash at all.
	want := recoverState(t, cfg, dir)

	// Each case mutates a fresh directory into the exact file state a crash
	// at that point of compact() leaves behind. The folded snapshot is built
	// the way compact builds it: verify both files, merge on Seq, re-encode
	// as a manifest-sealed v2 snapshot.
	pair := foldScans(
		scanFile(snap, snapshotFile(dir), true),
		scanFile(tail, journalFile(dir), false))
	if pair.gap != "" {
		t.Fatalf("workload files do not fold: %s", pair.gap)
	}
	folded, err := encodeSnapshot(pair.entries)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		set  func(d string)
	}{
		{"pre-rename", func(d string) {
			// Temp file fully written and synced; rename never happened.
			writeFile(t, filepath.Join(d, "snapshot.jsonl.tmp"), folded)
		}},
		{"post-rename-pre-truncate", func(d string) {
			// Snapshot replaced; journal still holds the folded entries.
			writeFile(t, snapshotFile(d), folded)
		}},
		{"post-truncate", func(d string) {
			// The complete compaction.
			writeFile(t, snapshotFile(d), folded)
			writeFile(t, journalFile(d), nil)
		}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			d := t.TempDir()
			writeFile(t, snapshotFile(d), snap)
			writeFile(t, journalFile(d), tail)
			step.set(d)
			got := recoverState(t, cfg, d)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("crash %s: recovered state diverges from no-crash recovery\ngot  %+v\nwant %+v",
					step.name, got, want)
			}
		})
	}
}

// TestCompactCrashOverlapNotReplayedTwice pins the failure mode the Seq
// dedupe exists for: without it, the post-rename/pre-truncate state would
// replay the tail twice and diverge (duplicate submits shift job IDs).
func TestCompactCrashOverlapNotReplayedTwice(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit("minife", 1, 3600, 1800, "only"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(journalFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the mid-compact crash: same entries in snapshot and journal
	// (the snapshot in its sealed form, as compact would have written it).
	scan := scanFile(tail, journalFile(dir), false)
	snapData, err := encodeSnapshot(scan.entries)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, snapshotFile(dir), snapData)
	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := len(c2.Queue()) + len(c2.History()); n != 1 {
		t.Fatalf("overlap replayed twice: %d jobs, want 1", n)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
