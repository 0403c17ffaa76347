package acct

import (
	"fmt"

	"repro/internal/vfs"
)

// WriteFile durably writes an accounting file: records are written, synced to
// stable storage, and the file closed, with every error checked — accounting
// data that vanishes in a crash defeats its purpose.
func WriteFile(path string, records []Record) error {
	return WriteFileOn(vfs.OS{}, path, records)
}

// WriteFileOn is WriteFile on an explicit filesystem, so storage faults are
// injectable.
func WriteFileOn(fsys vfs.FS, path string, records []Record) error {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("acct: open %s: %w", path, err)
	}
	if err := Write(f, records); err != nil {
		f.Close()
		return fmt.Errorf("acct: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("acct: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("acct: close %s: %w", path, err)
	}
	return nil
}
