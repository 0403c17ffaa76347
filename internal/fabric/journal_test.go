package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// journalSpec is the campaign identity used across journal tests.
var journalSpec = []byte(`{"kind":"journal-test"}`)

// appendCell journals one accepted completion the way the dispatcher's sink
// does: unsynced.
func appendCell(j *CampaignJournal, cell int, row []byte) error {
	return j.appendRecord(journalRecord{Kind: "cell", Cell: cell, Row: row}, false)
}

func rowBytes(i int) []byte { return []byte(fmt.Sprintf("row-%d-payload", i)) }

// buildJournal creates a campaign journal with k appended cell records (in
// index order) and returns its raw bytes.
func buildJournal(t *testing.T, dir string, cells, k int) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "campaign.journal")
	j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed || rec.Gen != 1 {
		t.Fatalf("fresh open: %+v, want gen 1 unresumed", rec)
	}
	for i := 0; i < k; i++ {
		if err := appendCell(j, i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCampaignJournalTruncationProperty is the acceptance property: a
// campaign journal cut at EVERY byte offset must recover to a consistent
// DONE set — exactly the committed record prefix, never a lost middle
// record, never a duplicate, never a refusal. A cut before the first commit
// reinitializes as a fresh campaign (nothing was promised yet); any longer
// cut resumes with the generation bumped past the committed one.
func TestCampaignJournalTruncationProperty(t *testing.T) {
	const cells, k = 64, 20
	_, data := buildJournal(t, t.TempDir(), cells, k)

	dir := t.TempDir()
	prevRecovered := -1
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
		if err != nil {
			t.Fatalf("cut=%d: open refused: %v", cut, err)
		}
		// Committed prefix only: recovered rows must be exactly cells 0..m-1
		// in append order — a gap would mean a record was lost ahead of a
		// kept one, a duplicate would double-consume.
		m := len(rec.Rows)
		for i := 0; i < m; i++ {
			row, ok := rec.Rows[i]
			if !ok {
				t.Fatalf("cut=%d: recovered %d rows but cell %d missing (gap)", cut, m, i)
			}
			if !bytes.Equal(row, rowBytes(i)) {
				t.Fatalf("cut=%d: cell %d = %q, want %q", cut, i, row, rowBytes(i))
			}
		}
		// Monotone: cutting fewer bytes can never recover more records.
		if m < prevRecovered {
			t.Fatalf("cut=%d: recovered %d rows, previous cut recovered %d", cut, m, prevRecovered)
		}
		prevRecovered = m
		if rec.Resumed {
			if rec.Gen != 2 {
				t.Fatalf("cut=%d: resumed gen = %d, want 2", cut, rec.Gen)
			}
		} else {
			if rec.Gen != 1 || m != 0 {
				t.Fatalf("cut=%d: fresh reinit with gen=%d rows=%d", cut, rec.Gen, m)
			}
		}
		// The salvaged journal must be immediately usable: append one more
		// record and reopen — the write path proves the truncation left a
		// clean frame boundary.
		if err := appendCell(j, cells-1, rowBytes(cells-1)); err != nil {
			t.Fatalf("cut=%d: append after salvage: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		_, rec2, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(rec2.Rows) != m+1 {
			t.Fatalf("cut=%d: reopen recovered %d rows, want %d", cut, len(rec2.Rows), m+1)
		}
		if !bytes.Equal(rec2.Rows[cells-1], rowBytes(cells-1)) {
			t.Fatalf("cut=%d: appended record lost on reopen", cut)
		}
		os.Remove(path)
	}
}

// TestCampaignJournalTornTailSalvage: a partial frame at the tail — the
// artifact of a crash mid-append — is physically truncated away and the
// prefix survives.
func TestCampaignJournalTornTailSalvage(t *testing.T) {
	path, data := buildJournal(t, t.TempDir(), 16, 4)
	// Simulate a torn append: half a frame, no trailing newline.
	torn := wal.AppendFrame(nil, encodeRecord(journalRecord{Kind: "cell", Cell: 9, Row: rowBytes(9)}))
	torn = torn[:len(torn)/2]
	if err := os.WriteFile(path, append(append([]byte(nil), data...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Resumed || len(rec.Rows) != 4 || rec.SalvagedBytes != int64(len(torn)) {
		t.Fatalf("salvage: %+v (rows=%d), want 4 rows and %d salvaged bytes",
			rec, len(rec.Rows), len(torn))
	}
	if got, _ := os.ReadFile(path); int64(len(got)) <= int64(len(data)) {
		// gen bump appended after truncation: file = original + gen frame.
		t.Fatalf("journal not extended by gen bump: %d bytes", len(got))
	}
}

// TestCampaignJournalRefusesMidLogCorruption: damage with verifiable records
// after it is corruption, not a torn tail — resuming would silently lose a
// committed row, so the open must refuse.
func TestCampaignJournalRefusesMidLogCorruption(t *testing.T) {
	path, data := buildJournal(t, t.TempDir(), 16, 6)
	// Flip a payload byte in an early cell frame (past header+campaign+gen).
	corrupted := append([]byte(nil), data...)
	corrupted[bytes.Index(data, []byte(`"kind":"cell"`))+2] ^= 0x40 // first cell record
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("open = %v, want ErrJournalCorrupt", err)
	}
}

// TestCampaignJournalRefusesMismatchedCampaign: a journal can only resume
// the campaign it belongs to — spec hash and cell count are identity.
func TestCampaignJournalRefusesMismatchedCampaign(t *testing.T) {
	path, _ := buildJournal(t, t.TempDir(), 16, 2)
	if _, _, err := OpenCampaignJournal(vfs.OS{}, path, []byte(`{"kind":"other"}`), 16); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("spec mismatch: %v, want ErrCampaignMismatch", err)
	}
	if _, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 17); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("cell-count mismatch: %v, want ErrCampaignMismatch", err)
	}
}

// TestCampaignJournalGenerationMonotone: each reopen bumps the journaled
// generation — the fencing token a restarted dispatcher carries.
func TestCampaignJournalGenerationMonotone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.journal")
	for want := int64(1); want <= 4; want++ {
		j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Gen != want || j.Generation() != want {
			t.Fatalf("open %d: gen = %d, want %d", want, rec.Gen, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignJournalFaultyAppend: a torn cell append through vfs.Faulty is
// exactly the mid-append crash the chaos test injects — the next open
// salvages the torn tail and keeps every whole record.
func TestCampaignJournalFaultyAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faulty.journal")
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 11})
	j, _, err := OpenCampaignJournal(faulty, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendCell(j, i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	faulty.TearWrites(1)
	if err := appendCell(j, 3, rowBytes(3)); !errors.Is(err, vfs.ErrTornWrite) {
		t.Fatalf("torn append error = %v, want ErrTornWrite", err)
	}
	j.Close()
	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 3 {
		t.Fatalf("recovered %d rows after torn append, want 3", len(rec.Rows))
	}
	if rec.Gen != 2 {
		t.Fatalf("gen = %d, want 2", rec.Gen)
	}
}

// TestCampaignJournalGoldenBytes pins the on-disk format in both directions
// against testdata/golden-campaign.journal, written by the pre-internal/wal
// implementation for this exact operation list: the same operations must
// produce the same bytes, and the committed file must replay to the same
// state.
func TestCampaignJournalGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-campaign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	open := func() *CampaignJournal {
		t.Helper()
		j, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j := open()
	for i := 0; i < 4; i++ {
		if err := appendCell(j, i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []journalRecord{
		{Kind: "poison", Cell: 5, Err: "boom"},
		{Kind: "quarantine", Worker: "w-x", Reason: "checksum", Strikes: 3},
		{Kind: "quarantine", Worker: "w-y", Reason: "spam", Strikes: 4},
		{Kind: "unquarantine", Worker: "w-y"},
	} {
		if err := j.appendRecord(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j = open() // generation 2
	if err := appendCell(j, 4, rowBytes(4)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("on-disk bytes moved: %d bytes (golden %d)\n%s", len(got), len(golden), got)
	}

	rec, _, err := parseCampaignJournal(golden, journalSpec, 8)
	if err != nil {
		t.Fatalf("golden journal rejected: %v", err)
	}
	if !rec.Resumed || rec.Gen != 2 || len(rec.Rows) != 5 || rec.SalvagedBytes != 0 ||
		!reflect.DeepEqual(rec.Poisoned, map[int]string{5: "boom"}) ||
		!reflect.DeepEqual(rec.Quarantined, map[string]string{"w-x": "checksum"}) {
		t.Fatalf("golden journal replays as %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(rec.Rows[i], rowBytes(i)) {
			t.Fatalf("golden journal: cell %d = %q", i, rec.Rows[i])
		}
	}
}

// TestCampaignJournalRefusesDamagedHeader: a damaged header over a log that
// holds verifiable frames is corruption — re-creating the file would forget
// every cell, poison and quarantine record and reset the fencing generation.
// Only a file with nothing committed reinitializes.
func TestCampaignJournalRefusesDamagedHeader(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-campaign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), golden...)
	damaged[3] ^= 0x01
	path := filepath.Join(t.TempDir(), "campaign.journal")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("open = %+v, %v; want ErrJournalCorrupt", rec, err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, damaged) {
		t.Fatalf("refused journal was modified on disk: %d bytes, had %d", len(got), len(damaged))
	}
}

// watchFS is vfs.OS that, after every call, reads the journal path and
// requires it to be absent or to hold a complete fresh campaign: a second
// dispatcher opening the path at any of those instants must not find a
// half-written journal, read it as fresh and truncate it under the first.
type watchFS struct {
	vfs.OS
	t     *testing.T
	path  string
	calls int
}

func (w *watchFS) check(op string) {
	w.t.Helper()
	w.calls++
	data, err := os.ReadFile(w.path)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		w.t.Fatal(err)
	}
	if rec, _, err := parseCampaignJournal(data, journalSpec, 8); err != nil || !rec.Resumed || rec.Gen != 1 {
		w.t.Errorf("after %s the journal holds %q, not a complete campaign", op, data)
	}
}

func (w *watchFS) Open(path string) (vfs.File, error) {
	f, err := w.OS.Open(path)
	w.check("Open")
	return f, err
}

func (w *watchFS) Create(path string) (vfs.File, error) {
	f, err := w.OS.Create(path)
	w.check("Create")
	return watchFile{f, w}, err
}

func (w *watchFS) OpenAppend(path string) (vfs.File, error) {
	f, err := w.OS.OpenAppend(path)
	w.check("OpenAppend")
	return watchFile{f, w}, err
}

func (w *watchFS) ReadFile(path string) ([]byte, error) {
	data, err := w.OS.ReadFile(path)
	w.check("ReadFile")
	return data, err
}

func (w *watchFS) Rename(oldpath, newpath string) error {
	err := w.OS.Rename(oldpath, newpath)
	w.check("Rename")
	return err
}

func (w *watchFS) Remove(path string) error {
	err := w.OS.Remove(path)
	w.check("Remove")
	return err
}

func (w *watchFS) Truncate(path string, size int64) error {
	err := w.OS.Truncate(path, size)
	w.check("Truncate")
	return err
}

func (w *watchFS) MkdirAll(path string, perm fs.FileMode) error {
	err := w.OS.MkdirAll(path, perm)
	w.check("MkdirAll")
	return err
}

func (w *watchFS) ReadDir(dir string) ([]string, error) {
	names, err := w.OS.ReadDir(dir)
	w.check("ReadDir")
	return names, err
}

func (w *watchFS) SyncDir(dir string) error {
	err := w.OS.SyncDir(dir)
	w.check("SyncDir")
	return err
}

// watchFile checks the journal path after each write, sync and close.
type watchFile struct {
	vfs.File
	w *watchFS
}

func (f watchFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.w.check("Write")
	return n, err
}

func (f watchFile) Sync() error {
	err := f.File.Sync()
	f.w.check("Sync")
	return err
}

func (f watchFile) Close() error {
	err := f.File.Close()
	f.w.check("Close")
	return err
}

// TestFreshJournalNeverHalfWritten opens a fresh campaign journal through
// watchFS: the header, campaign and generation records reach the path in
// one rename, so no instant of the open exposes an empty or partial file.
func TestFreshJournalNeverHalfWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	w := &watchFS{t: t, path: path}
	j, rec, err := OpenCampaignJournal(w, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.Resumed || rec.Gen != 1 {
		t.Fatalf("fresh open: %+v, want gen 1 unresumed", rec)
	}
	if w.calls < 5 {
		t.Fatalf("only %d filesystem calls were watched", w.calls)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}
