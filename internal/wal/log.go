package wal

import (
	"errors"
	"fmt"

	"repro/internal/vfs"
)

// ErrWedged marks a log whose tail could not be rolled back after a failed
// append: nothing more may be written (appending past unverified bytes would
// turn a salvageable torn tail into mid-log corruption), but the committed
// prefix remains salvageable by the next scan.
var ErrWedged = errors.New("wal: log wedged by an earlier failed append rollback")

// Log is the append handle of one unsealed log file.
type Log struct {
	fs   vfs.FS
	path string
	f    vfs.File // nil after a rollback; the next operation reopens
	// committed is the length of the file's whole-frame prefix: everything
	// verified at open plus every append that succeeded since. A failed
	// append rolls the file back to it, so the log never accumulates
	// unverifiable bytes ahead of later records.
	committed int64
	wedged    bool
	// buf is the frame buffer, kept between appends so a steady stream of
	// them allocates nothing here.
	buf []byte
}

// Create truncate-creates path as a log holding the header line and one
// frame per payload, written in a single write and synced, so the file is
// self-describing from byte zero before anything relies on it.
func Create(fsys vfs.FS, path, header string, payloads ...[]byte) (*Log, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	buf := Encode(header, payloads, false)
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: init %s: %w", path, err)
	}
	return &Log{fs: fsys, path: path, f: f, committed: int64(len(buf))}, nil
}

// Replace atomically replaces the content of path with data: it writes
// path+".tmp", syncs and closes it, and renames it over path, removing the
// temp file if any step fails, so path holds either its old content or all
// of data. The directory is not synced: a caller that needs the rename to
// survive power loss syncs it, and decides what a failed directory sync
// means.
func Replace(fsys vfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// OpenAppend opens the existing log at path whose verified prefix is
// validLen bytes (a Scan's ValidLen, after the caller truncated any torn
// tail to it).
func OpenAppend(fsys vfs.FS, path string, validLen int64) (*Log, error) {
	l := &Log{fs: fsys, path: path, committed: validLen}
	if err := l.reopen(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) reopen() error {
	if l.f != nil {
		return nil
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// Append frames the payloads and appends them as one unit: one write, one
// fsync when sync is set, one rollback. A caller whose operation produces
// several records hands them over together, so the operation costs one trip
// to stable storage however many records it caused. On a failed write — or a
// failed requested fsync — the file is truncated back to the committed prefix,
// dropping every frame of the group: a torn write may have persisted some of
// them whole and part of the next (and a flush may have landed all of them
// even though the fsync failed), and leaving those bytes behind would collide
// with the caller's retry or read as mid-log corruption once later records
// follow. If the rollback itself fails the log wedges. A crash mid-write can
// still leave a whole-frame prefix of an unacknowledged group on disk; to a
// scan that is a committed prefix like any other.
func (l *Log) Append(sync bool, payloads ...[]byte) error {
	if l.wedged {
		return fmt.Errorf("wal: append to %s: %w", l.path, ErrWedged)
	}
	if err := l.reopen(); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	for _, p := range payloads {
		l.buf = AppendFrame(l.buf, p)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return l.rollback(fmt.Errorf("wal: append to %s: %w", l.path, err))
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return l.rollback(fmt.Errorf("wal: sync %s: %w", l.path, err))
		}
	}
	l.committed += int64(len(l.buf))
	return nil
}

func (l *Log) rollback(err error) error {
	l.f.Close()
	l.f = nil
	if terr := l.fs.Truncate(l.path, l.committed); terr != nil {
		l.wedged = true
		return fmt.Errorf("%w (rollback failed: %v; log wedged)", err, terr)
	}
	return err
}

// Checkpoint forces every appended record to stable storage.
func (l *Log) Checkpoint() error {
	if l.wedged {
		return fmt.Errorf("wal: checkpoint %s: %w", l.path, ErrWedged)
	}
	if err := l.reopen(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	return nil
}

// Close releases the handle without syncing.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, err)
	}
	return nil
}
