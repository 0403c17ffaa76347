package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/des"
)

// Injected fault errors. Injection sites wrap these with the path, so
// errors.Is distinguishes a deliberate fault from a real filesystem error in
// assertions.
var (
	// ErrTornWrite marks a write that persisted only a prefix of the buffer
	// (power loss or ENOSPC mid-write).
	ErrTornWrite = errors.New("vfs: injected torn write")
	// ErrSyncFailed marks an injected fsync failure. Once a file's sync has
	// failed, later syncs of the same file keep failing unless the profile
	// opts into transient semantics — after a real fsync error the kernel
	// may have dropped the dirty pages, so "retry fsync and trust success"
	// is exactly the bug this models.
	ErrSyncFailed = errors.New("vfs: injected fsync failure")
	// ErrCrashed marks operations refused after a crash point fired: the
	// process is "dead" as far as this FS is concerned.
	ErrCrashed = errors.New("vfs: crashed (injected crash point)")
)

// FaultProfile configures a Faulty FS. All probabilities are per operation
// in [0, 1]; zero disables that fault class. The same (seed, profile,
// operation sequence) always produces the same faults.
type FaultProfile struct {
	// Seed feeds the named des RNG streams that drive every draw.
	Seed uint64
	// TornWriteProb is the chance a Write persists only a random prefix and
	// fails. The prefix length is drawn from the same stream.
	TornWriteProb float64
	// SyncFailProb is the chance a File.Sync (or SyncDir) fails.
	SyncFailProb float64
	// SyncFailTransient makes a failed sync heal on retry. The default
	// (false) is fail-once-then-fail-forever per file: after one lost fsync
	// the file's durability can no longer be trusted.
	SyncFailTransient bool
	// BitFlipProb is the chance a read (Read or ReadFile) returns data with
	// one bit flipped — injected bit rot.
	BitFlipProb float64
	// CrashProb is the chance any mutating operation becomes a crash point:
	// the operation fails and every later operation returns ErrCrashed.
	CrashProb float64
}

// FaultStats counts the faults a Faulty FS has injected.
type FaultStats struct {
	TornWrites int64
	SyncFails  int64
	BitFlips   int64
	Crashes    int64
}

// Faulty wraps an inner FS and injects deterministic storage faults. Beyond
// the probabilistic profile it supports scripted faults (FailSyncs,
// CrashAfterWrites) for tests that need a fault at an exact operation.
// Safe for concurrent use.
type Faulty struct {
	inner FS

	mu      sync.Mutex
	profile FaultProfile
	torn    *des.RNG
	syncs   *des.RNG
	flips   *des.RNG
	crash   *des.RNG
	stats   FaultStats

	crashed    bool
	brokenSync map[string]bool // files whose sync has failed, now failing forever

	failSyncs   int // scripted: fail the next n syncs
	crashWrites int // scripted: crash after n more writes (-1 = off)
	tearWrites  int // scripted: tear the next n writes
}

// NewFaulty wraps inner with deterministic fault injection. Each fault
// class draws from its own named stream of p.Seed, so e.g. enabling bit
// flips does not perturb the torn-write schedule.
func NewFaulty(inner FS, p FaultProfile) *Faulty {
	root := des.NewRNG(p.Seed)
	return &Faulty{
		inner:       inner,
		profile:     p,
		torn:        root.Stream("vfs/torn-write"),
		syncs:       root.Stream("vfs/sync-fail"),
		flips:       root.Stream("vfs/bit-flip"),
		crash:       root.Stream("vfs/crash-point"),
		brokenSync:  make(map[string]bool),
		crashWrites: -1,
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// FailSyncs scripts the next n Sync/SyncDir calls to fail (on top of the
// probabilistic profile). Scripted failures respect the fail-forever
// semantics unless the profile is transient.
func (f *Faulty) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = n
}

// TearWrites scripts the next n Writes to persist only a prefix (drawn from
// the torn-write stream) and fail with ErrTornWrite — a power loss at an
// exact append, on top of the probabilistic profile.
func (f *Faulty) TearWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearWrites = n
}

// CrashAfterWrites scripts a crash point: the n+1th Write from now fails
// with ErrCrashed after persisting nothing, and every operation after it
// fails too. n < 0 cancels a pending scripted crash.
func (f *Faulty) CrashAfterWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashWrites = n
}

func (f *Faulty) checkCrashed() error {
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// drawCrash decides whether this mutating operation is a crash point.
// Callers hold f.mu.
func (f *Faulty) drawCrash() bool {
	if f.profile.CrashProb > 0 && f.crash.Float64() < f.profile.CrashProb {
		f.crashed = true
		f.stats.Crashes++
		return true
	}
	return false
}

// drawSyncFail decides whether a sync of path fails. Callers hold f.mu.
func (f *Faulty) drawSyncFail(path string) bool {
	if f.brokenSync[path] {
		f.stats.SyncFails++
		return true
	}
	fail := f.failSyncs > 0
	if fail {
		f.failSyncs--
	} else {
		fail = f.profile.SyncFailProb > 0 && f.syncs.Float64() < f.profile.SyncFailProb
	}
	if fail {
		f.stats.SyncFails++
		if !f.profile.SyncFailTransient {
			f.brokenSync[path] = true
		}
	}
	return fail
}

// maybeFlip possibly flips one random bit of p in place. Callers hold f.mu.
func (f *Faulty) maybeFlip(p []byte) {
	if len(p) == 0 || f.profile.BitFlipProb <= 0 {
		return
	}
	if f.flips.Float64() < f.profile.BitFlipProb {
		i := f.flips.Intn(len(p))
		p[i] ^= 1 << uint(f.flips.Intn(8))
		f.stats.BitFlips++
	}
}

func (f *Faulty) Open(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) Create(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	if f.drawCrash() {
		return nil, fmt.Errorf("create %s: %w", path, ErrCrashed)
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) OpenAppend(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.maybeFlip(data)
	return data, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return err
	}
	if f.drawCrash() {
		return fmt.Errorf("rename %s: %w", oldpath, ErrCrashed)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *Faulty) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return err
	}
	if f.drawCrash() {
		return fmt.Errorf("truncate %s: %w", path, ErrCrashed)
	}
	return f.inner.Truncate(path, size)
}

func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return err
	}
	if f.drawSyncFail(dir + "/") {
		return fmt.Errorf("syncdir %s: %w", dir, ErrSyncFailed)
	}
	return f.inner.SyncDir(dir)
}

func (f *Faulty) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// faultyFile injects write/sync/read faults on one handle.
type faultyFile struct {
	fs    *Faulty
	inner File
}

func (ff *faultyFile) Name() string { return ff.inner.Name() }

func (ff *faultyFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkCrashed(); err != nil {
		return 0, err
	}
	n, err := ff.inner.Read(p)
	if n > 0 {
		ff.fs.maybeFlip(p[:n])
	}
	return n, err
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkCrashed(); err != nil {
		return 0, err
	}
	if ff.fs.crashWrites == 0 {
		ff.fs.crashWrites = -1
		ff.fs.crashed = true
		ff.fs.stats.Crashes++
		return 0, fmt.Errorf("write %s: %w", ff.inner.Name(), ErrCrashed)
	}
	if ff.fs.crashWrites > 0 {
		ff.fs.crashWrites--
	}
	torn := ff.fs.tearWrites > 0
	if torn {
		ff.fs.tearWrites--
	}
	if torn || (ff.fs.profile.TornWriteProb > 0 && ff.fs.torn.Float64() < ff.fs.profile.TornWriteProb) {
		ff.fs.stats.TornWrites++
		n := 0
		if len(p) > 0 {
			n = ff.fs.torn.Intn(len(p)) // strict prefix: at least one byte lost
		}
		if n > 0 {
			if wn, err := ff.inner.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, fmt.Errorf("write %s: %w", ff.inner.Name(), ErrTornWrite)
	}
	if ff.fs.drawCrash() {
		return 0, fmt.Errorf("write %s: %w", ff.inner.Name(), ErrCrashed)
	}
	return ff.inner.Write(p)
}

func (ff *faultyFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkCrashed(); err != nil {
		return err
	}
	if ff.fs.drawSyncFail(ff.inner.Name()) {
		return fmt.Errorf("sync %s: %w", ff.inner.Name(), ErrSyncFailed)
	}
	return ff.inner.Sync()
}

func (ff *faultyFile) Close() error {
	// Close must always release the inner handle, crashed or not, so tests
	// do not leak descriptors; the result still reflects the crash.
	err := ff.inner.Close()
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.crashed {
		return ErrCrashed
	}
	return err
}
