package slurm

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Storage-fault property campaign. The invariant under test is the recovery
// contract from journal.go: whatever happens to the files on disk —
// truncation at any byte offset, a flipped bit anywhere — reopening the
// directory either yields a state equal to replaying a committed prefix of
// the original workload, or refuses loudly. Never a silently divergent
// state.

// storageCampaignSeed drives the sampled parts of the campaign. CI overrides
// it via STORAGE_FAULT_SEED; failures print it so any run is reproducible.
func storageCampaignSeed(t *testing.T) uint64 {
	t.Helper()
	if s := os.Getenv("STORAGE_FAULT_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad STORAGE_FAULT_SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// builtWorkload is a journaled workload run plus everything needed to judge
// a recovery attempt against it.
type builtWorkload struct {
	cfg       Config
	snap      []byte  // snapshot.jsonl bytes ("" when no compaction happened)
	tail      []byte  // journal.jsonl bytes
	committed []Entry // the full committed operation log
	state     ctlState
}

// buildWorkload drives the representative workload through a journaled
// controller and captures the resulting files and committed log.
// snapshotEvery > 0 leaves a snapshot+journal pair; 0 leaves journal only.
func buildWorkload(t *testing.T, snapshotEvery int) *builtWorkload {
	t.Helper()
	return buildWorkloadWith(t, snapshotEvery, driveWorkload)
}

// driveGroups is a workload of multi-frame groups: an advance that completes
// four jobs (advance + 4 records in one append), a cancel (cancel + record),
// and single-entry mutations around them.
func driveGroups(t *testing.T, c *Controller) {
	t.Helper()
	for i, app := range []string{"minife", "gtc", "milc", "minife"} {
		if _, err := c.Submit(app, 1, 600, des.Duration(100+10*i), "g"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two machine-wide jobs fill both hardware threads of every node once the
	// short jobs are gone; the third stays pending.
	var wide [3]cluster.JobID
	for i := range wide {
		var err error
		if wide[i], err = c.Submit("gtc", 4, 3600, 900, "wide"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	running, pending := wide[0], wide[2]
	if _, err := c.AdvanceChecked(300); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(pending); err != nil {
		t.Fatal(err)
	}
	if err := c.Requeue(running); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceChecked(50); err != nil {
		t.Fatal(err)
	}
}

func buildWorkloadWith(t *testing.T, snapshotEvery int, drive func(*testing.T, *Controller)) *builtWorkload {
	t.Helper()
	dir := t.TempDir()
	cfg := testControllerConfig()
	c, err := OpenJournaled(cfg, dir, snapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, c)
	w := &builtWorkload{
		cfg:       cfg,
		committed: append([]Entry(nil), c.entries...),
		state:     stateOf(c),
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	w.snap, _ = os.ReadFile(snapshotFile(dir))
	w.tail, err = os.ReadFile(journalFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if snapshotEvery > 0 && len(w.snap) == 0 {
		t.Fatal("workload did not compact; campaign needs a snapshot+journal pair")
	}
	return w
}

// restore materializes the workload's files (with the given journal bytes)
// into a fresh directory.
func (w *builtWorkload) restore(t *testing.T, snap, tail []byte) string {
	t.Helper()
	d := t.TempDir()
	if len(snap) > 0 {
		writeFile(t, snapshotFile(d), snap)
	}
	writeFile(t, journalFile(d), tail)
	return d
}

// entryJSON renders an entry in its canonical journal encoding, the form in
// which equality is meaningful (in-memory entries differ from recovered ones
// in nil-vs-empty representation).
func entryJSON(t *testing.T, e Entry) string {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkPrefix asserts that a successfully recovered controller holds an
// exact prefix of the committed log — the "no silent divergence" property.
func checkPrefix(t *testing.T, ctx string, c *Controller, committed []Entry) {
	t.Helper()
	got := c.entries
	if len(got) > len(committed) {
		t.Fatalf("%s: recovered %d entries, workload committed only %d", ctx, len(got), len(committed))
	}
	for i, e := range got {
		if entryJSON(t, e) != entryJSON(t, committed[i]) {
			t.Fatalf("%s: recovered log is not a committed prefix (diverges at entry %d of %d)",
				ctx, i, len(got))
		}
	}
}

// TestJournalTruncationCampaign cuts the journal at EVERY byte offset —
// journal-only and snapshot+journal layouts, and a workload of multi-frame
// groups (one append carrying an operation and its completion records), where
// a cut may leave whole frames of a group whose mutation was never
// acknowledged. A cut is a torn tail like any other, never corruption:
// recovery under the default FAIL policy must come up on a Seq-consecutive
// committed prefix (so an operation always precedes its records), replay it
// deterministically, and append cleanly behind it.
func TestJournalTruncationCampaign(t *testing.T) {
	for _, layout := range []struct {
		name          string
		snapshotEvery int
		drive         func(*testing.T, *Controller)
	}{
		{"journal-only", 0, driveWorkload},
		{"snapshot-and-journal", 4, driveWorkload},
		{"multi-frame-groups", 0, driveGroups},
	} {
		t.Run(layout.name, func(t *testing.T) {
			w := buildWorkloadWith(t, layout.snapshotEvery, layout.drive)
			partial := 0 // cuts that recovered an operation and some, not all, of its records
			for off := 0; off <= len(w.tail); off++ {
				ctx := "truncate@" + strconv.Itoa(off)
				d := w.restore(t, w.snap, w.tail[:off])
				c, err := OpenJournaled(w.cfg, d, 0)
				if err != nil {
					t.Fatalf("%s: a cut journal was refused as corrupt: %v", ctx, err)
				}
				checkPrefix(t, ctx, c, w.committed)
				if n := len(c.entries); n > 0 && n < len(w.committed) && w.committed[n].Op == "record" {
					partial++
				}
				checkCutRecovery(t, ctx, w, d, c)
			}
			// Wherever the journal holds a record behind its operation, some
			// cut must have separated the two.
			for i, e := range scanFile(w.tail, "tail", false).entries {
				if i > 0 && e.Op == "record" && partial == 0 {
					t.Fatal("the journal holds a multi-frame group, yet no cut recovered part of one")
				}
			}
		})
	}
}

// checkCutRecovery holds a controller recovered from a cut journal to the
// rest of the recovery contract: a torn tail, never quarantine; consecutive
// Seqs; the same state as replaying the recovered prefix from scratch; and a
// journal that takes a new mutation and recovers it. It closes c.
func checkCutRecovery(t *testing.T, ctx string, w *builtWorkload, dir string, c *Controller) {
	t.Helper()
	if info := c.Recovery(); info.Quarantined {
		t.Fatalf("%s: recovery quarantined a cut journal: %+v", ctx, info.Damage)
	}
	for i, e := range c.entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("%s: entry %d has Seq %d: not consecutive", ctx, i, e.Seq)
		}
	}
	ref, err := NewController(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.replay(append([]Entry(nil), c.entries...)); err != nil {
		t.Fatalf("%s: recovered prefix does not replay: %v", ctx, err)
	}
	if got, want := stateOf(c), stateOf(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovered state differs from a replay of the recovered prefix:\n got %+v\nwant %+v", ctx, got, want)
	}
	recovered := len(c.entries)
	if _, err := c.Submit("minife", 1, 600, 100, "after"); err != nil {
		t.Fatalf("%s: append after recovery: %v", ctx, err)
	}
	want := stateOf(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenJournaled(w.cfg, dir, 0)
	if err != nil {
		t.Fatalf("%s: reopen after a post-recovery append: %v", ctx, err)
	}
	defer c2.Close()
	if info := c2.Recovery(); info.TornBytes != 0 || len(info.Damage) != 0 || len(c2.entries) != recovered+1 {
		t.Fatalf("%s: second recovery found %d entries (want %d), %d torn bytes, damage %+v",
			ctx, len(c2.entries), recovered+1, info.TornBytes, info.Damage)
	}
	if got := stateOf(c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: mutation appended after recovery was not recovered:\n got %+v\nwant %+v", ctx, got, want)
	}
}

// TestJournalBitFlipCampaign flips one bit at a seeded sample of offsets in
// the journal and the snapshot, recovering under both corruption policies.
// FAIL may refuse; QUARANTINE must come up read-only on a committed prefix
// with the damage preserved in quarantine.jsonl. Either way: never a
// silently divergent replay.
func TestJournalBitFlipCampaign(t *testing.T) {
	seed := storageCampaignSeed(t)
	w := buildWorkload(t, 4)
	rng := des.NewRNG(seed).Stream("storage/bit-flip-campaign")
	quarantineCfg := w.cfg
	quarantineCfg.JournalCorruptPolicy = CorruptQuarantine

	const flips = 150
	for i := 0; i < flips; i++ {
		// Alternate targets between the two files so both formats' defenses
		// (per-frame CRC, snapshot manifest) are exercised.
		target, name := w.tail, "journal"
		if i%2 == 1 {
			target, name = w.snap, "snapshot"
		}
		off := rng.Intn(len(target))
		bit := byte(1) << uint(rng.Intn(8))
		mut := append([]byte(nil), target...)
		mut[off] ^= bit
		ctx := name + " flip@" + strconv.Itoa(off) + " seed=" + strconv.FormatUint(seed, 10)

		snap, tail := w.snap, mut
		if name == "snapshot" {
			snap, tail = mut, w.tail
		}

		// Default policy: refuse or recover a committed prefix.
		if c, err := OpenJournaled(w.cfg, w.restore(t, snap, tail), 0); err == nil {
			checkPrefix(t, ctx+" (fail policy)", c, w.committed)
			c.Close()
		}

		// Quarantine policy: must come up; damage means read-only DEGRADED
		// with a quarantine sidecar, and still an exact committed prefix.
		d := w.restore(t, snap, tail)
		c, err := OpenJournaled(quarantineCfg, d, 0)
		if err != nil {
			t.Fatalf("%s: quarantine policy refused to open: %v", ctx, err)
		}
		checkPrefix(t, ctx+" (quarantine policy)", c, w.committed)
		info := c.Recovery()
		if info.Quarantined {
			if c.Health() != HealthDegraded {
				t.Fatalf("%s: quarantined controller reports health %q, want degraded", ctx, c.Health())
			}
			if _, err := c.Submit("minife", 1, 1800, 900, "blocked"); !errors.Is(err, ErrDegraded) {
				t.Fatalf("%s: quarantined controller accepted a mutation (err %v)", ctx, err)
			}
			if _, err := os.Stat(quarantineFile(d)); err != nil {
				t.Fatalf("%s: quarantined without a quarantine.jsonl sidecar: %v", ctx, err)
			}
		}
		c.Close()
	}
}

// TestJournalTornTailThenAppend pins the recovered-fragment bug: after
// recovery drops a torn tail, new appends must not concatenate onto the torn
// bytes (which would fuse into one garbage line and silently lose the NEXT
// acknowledged entry on a later recovery). Recovery must physically truncate
// the fragment.
func TestJournalTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c1, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit("minife", 1, 1800, 900, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: half a frame, no newline.
	f, err := os.OpenFile(journalFile(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("=000000ff 00"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Recovery().TornBytes == 0 {
		t.Fatal("recovery did not report the torn tail")
	}
	if _, err := c2.Submit("minife", 1, 1800, 900, "b"); err != nil {
		t.Fatal(err)
	}
	want := stateOf(c2)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// The acknowledged post-recovery submit must survive the next recovery.
	c3, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := stateOf(c3); !reflect.DeepEqual(got, want) {
		t.Fatalf("entry appended after torn-tail recovery was lost:\n got %+v\nwant %+v", got, want)
	}
	if len(c3.entries) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(c3.entries))
	}
}

// TestJournalGoldenBytes pins the on-disk format in both directions against
// testdata/golden-state, the snapshot+journal pair the pre-internal/wal
// implementation wrote for driveWorkload compacting every 4 appends: the
// same operations must produce the same bytes, and the committed files must
// replay to the same state.
func TestJournalGoldenBytes(t *testing.T) {
	w := buildWorkload(t, 4)
	golden := filepath.Join("testdata", "golden-state")
	snap, tail := readFileT(t, snapshotFile(golden)), readFileT(t, journalFile(golden))
	if !bytes.Equal(w.snap, snap) || !bytes.Equal(w.tail, tail) {
		t.Fatalf("on-disk bytes moved:\nsnapshot %d bytes (golden %d)\n%s\njournal %d bytes (golden %d)\n%s",
			len(w.snap), len(snap), w.snap, len(w.tail), len(tail), w.tail)
	}
	c, err := OpenJournaled(w.cfg, w.restore(t, snap, tail), 0)
	if err != nil {
		t.Fatalf("golden state directory rejected: %v", err)
	}
	defer c.Close()
	if got := stateOf(c); !reflect.DeepEqual(got, w.state) {
		t.Fatalf("golden state directory replays differently:\n got %+v\nwant %+v", got, w.state)
	}
}

// TestJournalRefusesUnverifiableFiles: a non-empty journal without a
// verifiable header — plain JSONL as the pre-checksum releases wrote it, or
// a v2 file whose header took a bit flip — is never parsed and never treated
// as empty. FAIL refuses naming fsck; QUARANTINE comes up read-only on
// nothing, with every byte of the file preserved in the sidecar and the file
// itself untouched. The per-file Seq invariant classifies on frames the way
// it did on JSONL lines: a stale-seq tail is torn, a mid-file gap corrupt.
func TestJournalRefusesUnverifiableFiles(t *testing.T) {
	w := buildWorkload(t, 0)
	var jsonl []byte
	for _, e := range w.committed {
		jsonl = append(append(jsonl, entryJSON(t, e)...), '\n')
	}
	flipped := append([]byte(nil), w.tail...)
	flipped[3] ^= 0x04
	quarantineCfg := w.cfg
	quarantineCfg.JournalCorruptPolicy = CorruptQuarantine

	for name, file := range map[string][]byte{"headerless-jsonl": jsonl, "header-flipped": flipped} {
		if _, err := OpenJournaled(w.cfg, w.restore(t, nil, file), 0); err == nil || !strings.Contains(err.Error(), "mini-slurm fsck") {
			t.Fatalf("%s under FAIL: err %v, want refusal naming `mini-slurm fsck`", name, err)
		}
		d := w.restore(t, nil, file)
		c, err := OpenJournaled(quarantineCfg, d, 0)
		if err != nil {
			t.Fatalf("%s under QUARANTINE: %v", name, err)
		}
		if !c.Recovery().Quarantined || c.Health() != HealthDegraded || len(c.entries) != 0 {
			t.Fatalf("%s under QUARANTINE: quarantined=%v health=%q entries=%d, want read-only on nothing",
				name, c.Recovery().Quarantined, c.Health(), len(c.entries))
		}
		c.Close()
		var kept []byte
		for _, line := range strings.Split(strings.TrimSpace(string(readFileT(t, quarantineFile(d)))), "\n") {
			var fd FileDamage
			if err := json.Unmarshal([]byte(line), &fd); err != nil {
				t.Fatalf("%s: quarantine sidecar is not JSONL: %v", name, err)
			}
			raw, err := base64.StdEncoding.DecodeString(fd.RawB64)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, raw...)
		}
		if !bytes.Equal(kept, file) {
			t.Fatalf("%s: quarantine sidecar holds %d bytes, want all %d of the file", name, len(kept), len(file))
		}
		if !bytes.Equal(readFileT(t, journalFile(d)), file) {
			t.Fatalf("%s: quarantined journal was modified on disk", name)
		}
	}

	frames := func(seqs ...int) []byte {
		var payloads [][]byte
		for _, seq := range seqs {
			payloads = append(payloads, []byte(`{"seq":`+strconv.Itoa(seq)+`,"op":"advance","seconds":1}`))
		}
		return wal.Encode(journalHeader, payloads, false)
	}
	// Stale-seq tail: dropped as torn, earlier entries kept.
	if s := scanFile(frames(1, 2, 2), "tail", false); !s.Torn || len(s.entries) != 2 {
		t.Fatalf("stale-seq tail: torn=%v entries=%d, want 2 entries salvaged from a torn tail", s.Torn, len(s.entries))
	}
	// Mid-file gap with verifiable records after it: corruption, no salvage.
	if s := scanFile(frames(1, 5, 6), "gap", false); len(s.Damage) == 0 || s.Torn {
		t.Fatalf("mid-file sequence gap: damage=%d torn=%v, want corrupt", len(s.Damage), s.Torn)
	}
}

// TestFsckReportAndRepair: fsck classifies mid-log damage as corrupt,
// -repair salvages the committed prefix into a clean v2 pair, quarantines
// the damaged record, and the repaired directory opens under the strict
// policy with a committed-prefix state.
func TestFsckReportAndRepair(t *testing.T) {
	w := buildWorkload(t, 0)
	// Flip a byte in the middle of the file: mid-log corruption, since valid
	// frames follow.
	mut := append([]byte(nil), w.tail...)
	mut[len(mut)/2] ^= 0x10
	dir := w.restore(t, nil, mut)

	report, err := Fsck(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Corrupt || report.Torn {
		t.Fatalf("mid-log damage classified as corrupt=%v torn=%v, want corrupt", report.Corrupt, report.Torn)
	}
	if len(report.Journal.Damage) == 0 {
		t.Fatal("fsck reported no per-record damage")
	}
	if !strings.Contains(report.Summary(), "CORRUPT") {
		t.Fatalf("summary does not flag corruption:\n%s", report.Summary())
	}
	// The strict policy refuses this directory and names fsck.
	if _, err := OpenJournaled(w.cfg, dir, 0); err == nil || !strings.Contains(err.Error(), "fsck") {
		t.Fatalf("corrupt journal under FAIL policy: err %v, want refusal naming fsck", err)
	}

	pre, err := FsckRepair(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Committed == 0 {
		t.Fatal("repair salvaged nothing")
	}
	qb, err := os.ReadFile(quarantineFile(dir))
	if err != nil || len(qb) == 0 {
		t.Fatalf("repair left no quarantine sidecar (err %v)", err)
	}
	var fd FileDamage
	if err := json.Unmarshal([]byte(strings.SplitN(string(qb), "\n", 2)[0]), &fd); err != nil {
		t.Fatalf("quarantine sidecar is not JSONL: %v", err)
	}
	if fd.Reason == "" || fd.RawB64 == "" {
		t.Fatalf("quarantine record missing reason/raw bytes: %+v", fd)
	}

	after, err := Fsck(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("repair left damage:\n%s", after.Summary())
	}
	c, err := OpenJournaled(w.cfg, dir, 0)
	if err != nil {
		t.Fatalf("repaired directory rejected: %v", err)
	}
	defer c.Close()
	checkPrefix(t, "post-repair", c, w.committed)
}

// TestJournalTypedErrors: the breaker's operators must be able to tell a
// failed append from a failed compaction; the two paths wrap distinct
// sentinels, and a transient compaction fault leaves the append path healthy
// (and heals on the next compact).
func TestJournalTypedErrors(t *testing.T) {
	// Append path, via the test hook the overload tests use.
	dir := t.TempDir()
	cfg := testControllerConfig()
	c, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.jr.testAppendErr = func(Entry) error { return errors.New("disk on fire") }
	_, err = c.Submit("minife", 1, 1800, 900, "x")
	if !errors.Is(err, ErrJournalAppend) || errors.Is(err, ErrJournalCompact) {
		t.Fatalf("append failure = %v, want ErrJournalAppend and not ErrJournalCompact", err)
	}
	c.jr.testAppendErr = nil
	c.Close()

	// Compaction path, via an injected fsync fault on the snapshot temp
	// file. Transient semantics so the retry can heal.
	fsys := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 1, SyncFailTransient: true})
	dir2 := t.TempDir()
	c2, err := OpenJournaledFS(cfg, fsys, dir2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Submit("minife", 1, 1800, 900, "y"); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncs(1)
	err = c2.jr.compact()
	if !errors.Is(err, ErrJournalCompact) || errors.Is(err, ErrJournalAppend) {
		t.Fatalf("compact failure = %v, want ErrJournalCompact and not ErrJournalAppend", err)
	}
	// The fault hit before the old writer was closed: appends still work...
	if _, err := c2.Submit("minife", 1, 1800, 900, "z"); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	// ...and the next compaction succeeds, leaving a recoverable pair.
	if err := c2.jr.compact(); err != nil {
		t.Fatalf("compact retry: %v", err)
	}
	want := stateOf(c2)
	c3, err := OpenJournaled(cfg, dir2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := stateOf(c3); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery after compact fault+retry diverges:\n got %+v\nwant %+v", got, want)
	}
}

// snapSyncFailFS fails the fsync of the next `fails` snapshot temp files — the
// inline compaction an append triggers — and nothing else.
type snapSyncFailFS struct {
	vfs.FS
	fails int
}

func (f *snapSyncFailFS) Create(path string) (vfs.File, error) {
	file, err := f.FS.Create(path)
	if err == nil && strings.HasSuffix(path, ".tmp") && f.fails > 0 {
		f.fails--
		return failSyncFile{file}, nil
	}
	return file, err
}

type failSyncFile struct{ vfs.File }

func (failSyncFile) Sync() error { return vfs.ErrSyncFailed }

// TestJournalFsyncFaultAtCompactionThreshold: one fsync fails on the append
// that trips an inline compaction — either the append's own (the entry is
// rolled back and the submit refused) or the snapshot's (the entry is already
// durable, so the submit is acknowledged and the fold retried). Either way
// the controller keeps serving, and recovery finds strictly consecutive Seqs
// and exactly the acknowledged jobs. (Failing the append for a failed fold,
// with the entry already on disk, makes the controller reissue its Seq, and
// recovery refuses the log as out of sequence.)
func TestJournalFsyncFaultAtCompactionThreshold(t *testing.T) {
	cfg := testControllerConfig()
	for _, tc := range []struct {
		name     string
		arm      func() (vfs.FS, func()) // the filesystem, and what injects the fault
		refused  bool                    // is the faulted submit refused?
		tolerate int64                   // journal_sync_errors it must add
	}{
		{name: "append fsync", refused: true, arm: func() (vfs.FS, func()) {
			fsys := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 1, SyncFailTransient: true})
			return fsys, func() { fsys.FailSyncs(1) }
		}},
		{name: "snapshot fsync", tolerate: 1, arm: func() (vfs.FS, func()) {
			fsys := &snapSyncFailFS{FS: vfs.OS{}}
			return fsys, func() { fsys.fails = 1 }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys, inject := tc.arm()
			dir := t.TempDir()
			c, err := OpenJournaledFS(cfg, fsys, dir, 2) // compact every 2 appends
			if err != nil {
				t.Fatal(err)
			}
			tolerated := journalSyncErrors.Value()
			var acked []string
			for i, name := range []string{"a", "b", "b-retry", "c", "d"} {
				if i == 1 {
					inject() // "b" is the second append: the one that compacts
				}
				_, err := c.Submit("minife", 1, 1800, 900, name)
				switch {
				case err == nil:
					acked = append(acked, name)
				case i == 1 && tc.refused && errors.Is(err, ErrJournalAppend):
				default:
					t.Fatalf("submit %s: %v", name, err)
				}
			}
			if refused := len(acked) == 4; refused != tc.refused {
				t.Fatalf("acked %v; faulted submit refused = %v, want %v", acked, refused, tc.refused)
			}
			if got := journalSyncErrors.Value() - tolerated; got != tc.tolerate {
				t.Errorf("journal_sync_errors grew by %d, want %d", got, tc.tolerate)
			}
			c.Close()

			c2, err := OpenJournaled(cfg, dir, 0)
			if err != nil {
				t.Fatalf("recovery refused: %v", err)
			}
			defer c2.Close()
			var recovered []string
			for i, e := range c2.entries {
				if e.Seq != int64(i+1) {
					t.Fatalf("entry %d has Seq %d: not strictly consecutive", i, e.Seq)
				}
				if e.Op == "submit" {
					recovered = append(recovered, e.Name)
				}
			}
			if !reflect.DeepEqual(recovered, acked) {
				t.Fatalf("recovered jobs %v, acknowledged %v", recovered, acked)
			}
			if _, err := os.Stat(snapshotFile(dir)); err != nil {
				t.Errorf("no snapshot after the fault passed: the compaction never healed: %v", err)
			}
		})
	}
}

// TestSyncDirErrorsCounted: directory-fsync failures are tolerated but
// counted in the journal_sync_errors expvar (and logged once).
func TestSyncDirErrorsCounted(t *testing.T) {
	before := journalSyncErrors.Value()
	fsys := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 1, SyncFailTransient: true})
	fsys.FailSyncs(1)
	syncDir(fsys, t.TempDir())
	if got := journalSyncErrors.Value(); got != before+1 {
		t.Fatalf("journal_sync_errors = %d after a failed dir fsync, want %d", got, before+1)
	}
	syncDir(fsys, t.TempDir()) // healthy dir fsync must not count
	if got := journalSyncErrors.Value(); got != before+1 {
		t.Fatalf("journal_sync_errors = %d after a clean dir fsync, want %d", got, before+1)
	}
}

// TestHAPromotionFsckGate: a standby whose on-disk log has rotted must not
// promote on it — the cluster's acknowledged history would shrink to the
// salvaged prefix. It stays standby until the log verifies again.
func TestHAPromotionFsckGate(t *testing.T) {
	lease := 150 * time.Millisecond
	a, b := startPair(t, lease)
	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit("minife", 1, 3600, 1800, "job"); err != nil {
			t.Fatal(err)
		}
	}

	// Rot the standby's journal mid-file (valid frames follow the damage),
	// then silence the primary.
	good, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), good...)
	mut[len(mut)/2] ^= 0x01
	writeFile(t, journalFile(b.dir), mut)
	a.ctl.StopHA()

	// The gate must hold through several lease expiries.
	time.Sleep(5 * lease)
	if role, _ := b.ctl.RoleEpoch(); role != RoleStandby {
		t.Fatal("standby promoted on a corrupt journal")
	}

	// Restore the log; the next expiry passes fsck and promotes.
	writeFile(t, journalFile(b.dir), good)
	waitFor(t, 20*lease, "promotion after journal restored", func() bool {
		role, _ := b.ctl.RoleEpoch()
		return role == RolePrimary
	})
}

// TestHAChaosFsyncDuringCompaction is the chaos headline: the standby runs
// on fault-injecting storage whose fsyncs fail exactly around its
// compaction threshold (the append that trips compact, then the resync
// rewrites). The failed replicated append marks the follower for a full
// resync; once the faults pass, the pair must converge — same engine state,
// and byte-identical files once both logs are folded to canonical form.
func TestHAChaosFsyncDuringCompaction(t *testing.T) {
	cfg := testControllerConfig()
	lease := 400 * time.Millisecond

	// Primary on clean storage, journal-only.
	aDir := t.TempDir()
	aCtl, err := OpenJournaled(cfg, aDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer aCtl.Close()

	// Standby on faulty storage, compacting every 4 appends.
	fsys := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 1, SyncFailTransient: true})
	bDir := t.TempDir()
	bCtl, err := OpenJournaledFS(cfg, fsys, bDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer bCtl.Close()
	bSrv := NewServer(bCtl)
	bAddr, err := bSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bSrv.Close()

	if err := aCtl.StartHA(HAOptions{Peer: bAddr, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	if err := bCtl.StartHA(HAOptions{Standby: true, Peer: "127.0.0.1:1", Lease: 10 * lease}); err != nil {
		t.Fatal(err)
	}

	submit := func(name string) {
		t.Helper()
		_, err := aCtl.Submit("minife", 1, 3600, 1800, name)
		if err != nil && !errors.Is(err, errReplication) {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	for i := 0; i < 3; i++ {
		submit("pre" + strconv.Itoa(i))
	}
	// The next replicated append is the standby's 4th: append fsync + the
	// compaction it triggers. Script the next three fsyncs to fail — the
	// append (marks the follower for full resync), then the resync rewrites
	// until the fault window passes.
	fsys.FailSyncs(3)
	for i := 0; i < 7; i++ {
		submit("mid" + strconv.Itoa(i))
	}

	// Heartbeats drive retry and full resync; the pair must converge.
	waitFor(t, 40*lease, "pair state convergence after fsync faults", func() bool {
		return reflect.DeepEqual(stateOf(aCtl), stateOf(bCtl))
	})
	if fsys.Stats().SyncFails == 0 {
		t.Fatal("chaos run injected no fsync faults")
	}
	if h := bCtl.Health(); h != HealthOK {
		t.Fatalf("standby health after resync = %q, want ok", h)
	}

	// Byte convergence: fold each node's log to canonical form (snapshot of
	// everything + empty journal) and compare the files byte for byte.
	aCtl.Close()
	bCtl.Close()
	aSnap, aTail := canonicalize(t, cfg, aDir)
	bSnap, bTail := canonicalize(t, cfg, bDir)
	if string(aSnap) != string(bSnap) || string(aTail) != string(bTail) {
		t.Fatalf("pair not byte-convergent after resync: snapshots %d vs %d bytes, journals %d vs %d bytes",
			len(aSnap), len(bSnap), len(aTail), len(bTail))
	}
	if len(aSnap) == 0 {
		t.Fatal("canonical snapshots empty: chaos run exercised nothing")
	}
}

// canonicalize folds a directory's committed log into its canonical form —
// one sealed snapshot holding everything, one empty journal — and returns
// both files' bytes.
func canonicalize(t *testing.T, cfg Config, dir string) (snap, tail []byte) {
	t.Helper()
	j, entries, _, err := openJournal(vfs.OS{}, dir, 0, CorruptFail)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", dir, err)
	}
	if err := j.rewrite(entries); err != nil {
		t.Fatalf("canonicalize %s: %v", dir, err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	return readFileT(t, snapshotFile(dir)), readFileT(t, journalFile(dir))
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalCorruptPolicyConfigKey: the slurm.conf key parses, validates,
// and defaults to FAIL.
func TestJournalCorruptPolicyConfigKey(t *testing.T) {
	base := "NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n"
	cfg, err := ParseConfig(strings.NewReader(base + "JournalCorruptPolicy=QUARANTINE\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JournalCorruptPolicy != CorruptQuarantine {
		t.Fatalf("policy = %q, want quarantine", cfg.JournalCorruptPolicy)
	}
	cfg, err = ParseConfig(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JournalCorruptPolicy != "" {
		t.Fatalf("policy defaulted to %q, want empty (FAIL)", cfg.JournalCorruptPolicy)
	}
	if _, err := ParseConfig(strings.NewReader(base + "JournalCorruptPolicy=shrug\n")); err == nil {
		t.Fatal("bad policy value validated")
	}
}
