package slurm

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// Offline verification and repair of a controller state directory, exposed
// as the `mini-slurm fsck` subcommand and used online by the HA promotion
// gate: a standby whose local log fails verification must not become
// primary on it — it full-resyncs from the peer instead.

func b64(p []byte) string { return base64.StdEncoding.EncodeToString(p) }

// FsckFile is the verification result for one file of the pair.
type FsckFile struct {
	Path     string
	Entries  int
	ValidLen int64
	Size     int64 // 0 = missing or empty
	Torn     bool
	Damage   []wal.Damage
}

func fsckFile(s *fileScan) FsckFile {
	return FsckFile{
		Path:     s.path,
		Entries:  len(s.entries),
		ValidLen: s.ValidLen,
		Size:     s.Size,
		Torn:     s.Torn,
		Damage:   s.Damage,
	}
}

// FsckReport is the result of verifying a state directory.
type FsckReport struct {
	Dir      string
	Snapshot FsckFile
	Journal  FsckFile
	// Committed is the length of the replayable committed prefix after
	// folding snapshot and journal.
	Committed int
	// Gap, when non-empty, describes a sequence gap that makes later
	// records unreachable.
	Gap string
	// Unreachable counts structurally valid records stranded after a gap.
	Unreachable int
	// Torn reports journal damage confined to an unverifiable tail — the
	// benign crash-mid-append artifact that recovery salvages automatically.
	Torn bool
	// Corrupt reports damage recovery will not silently salvage: any
	// snapshot damage, mid-log journal damage, or a sequence gap.
	Corrupt bool
}

// Clean reports a fully verified directory (no damage of any kind).
func (r *FsckReport) Clean() bool { return !r.Torn && !r.Corrupt }

// Summary renders the report as a human-readable multi-line string.
func (r *FsckReport) Summary() string {
	var b strings.Builder
	status := "clean"
	switch {
	case r.Corrupt:
		status = "CORRUPT"
	case r.Torn:
		status = "torn tail (auto-salvageable)"
	}
	fmt.Fprintf(&b, "fsck %s: %s\n", r.Dir, status)
	file := func(name string, f FsckFile) {
		if f.Size == 0 {
			fmt.Fprintf(&b, "  %s: missing or empty\n", name)
			return
		}
		fmt.Fprintf(&b, "  %s: v2, %d entries, %d/%d bytes verified\n",
			name, f.Entries, f.ValidLen, f.Size)
		for _, d := range f.Damage {
			fmt.Fprintf(&b, "    line %d (offset %d): %s\n", d.Line, d.Offset, d.Reason)
		}
	}
	file("snapshot", r.Snapshot)
	file("journal", r.Journal)
	fmt.Fprintf(&b, "  committed entries: %d\n", r.Committed)
	if r.Gap != "" {
		fmt.Fprintf(&b, "  %s: %d record(s) unreachable\n", r.Gap, r.Unreachable)
	}
	return b.String()
}

// Fsck verifies the snapshot+journal pair in dir without modifying anything.
func Fsck(fsys vfs.FS, dir string) (*FsckReport, error) {
	r, _, err := fsck(fsys, dir)
	return r, err
}

func fsck(fsys vfs.FS, dir string) (*FsckReport, *statePair, error) {
	p, err := scanState(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	r := &FsckReport{
		Dir:         dir,
		Snapshot:    fsckFile(p.snap),
		Journal:     fsckFile(p.tail),
		Committed:   len(p.entries),
		Gap:         p.gap,
		Unreachable: len(p.unreachable),
		Corrupt:     p.corrupt(),
	}
	r.Torn = !r.Corrupt && p.tail.Torn
	return r, p, nil
}

// FsckRepair salvages dir: the committed prefix is rewritten as a clean
// sealed snapshot (atomic tmp+rename) plus a fresh empty journal, and every
// damaged or unreachable record is preserved in quarantine.jsonl. Returns
// the pre-repair report. Repairing a clean directory only compacts it.
func FsckRepair(fsys vfs.FS, dir string) (*FsckReport, error) {
	r, p, err := fsck(fsys, dir)
	if err != nil {
		return nil, err
	}
	if q := p.quarantine(true); len(q) > 0 {
		if err := writeQuarantine(fsys, dir, q); err != nil {
			return nil, err
		}
	}
	err = writeSnapshot(fsys, dir, p.entries)
	if err == nil {
		var log *wal.Log
		if log, err = wal.Create(fsys, journalFile(dir), journalHeader); err == nil {
			err = log.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("slurm: fsck repair: %w", err)
	}
	syncDir(fsys, dir)
	return r, nil
}

// writeQuarantine durably records damaged records in dir/quarantine.jsonl
// (truncating any previous sidecar) so salvage never silently discards
// bytes: operators can inspect exactly what recovery refused to replay.
func writeQuarantine(fsys vfs.FS, dir string, ds []FileDamage) error {
	f, err := fsys.Create(quarantineFile(dir))
	if err != nil {
		return fmt.Errorf("slurm: write quarantine: %w", err)
	}
	for _, d := range ds {
		line, err := json.Marshal(d)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("slurm: write quarantine: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("slurm: write quarantine: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("slurm: write quarantine: %w", err)
	}
	syncDir(fsys, dir)
	return nil
}
