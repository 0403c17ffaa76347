package main

import (
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// fsyncModel is the stated disk model: every Sync the controller issues costs
// this long before the real Sync runs, on both replicas. The sandbox's own
// fsync is nearly free and varies from host to host; a fixed cost makes "how
// many fsyncs does an acknowledged write need" show up in latency and
// throughput the same way everywhere.
const fsyncModel = 2 * time.Millisecond

// Sync behaviours of a countingFS.
const (
	syncReal  int32 = iota // count and time the real Sync
	syncModel              // sleep fsyncModel, then the real Sync
	syncSkip               // count nothing, sync nothing: bulk preload
)

// fsCounters is what a countingFS saw.
type fsCounters struct {
	writes     atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64
	syncNS     atomic.Int64 // model sleep + real Sync
	syncRealNS atomic.Int64 // real Sync alone
}

// countingFS is the benchmark's vfs.FS wrapper: it counts and times the writes
// and syncs of every file opened through it, from outside the journal code.
type countingFS struct {
	vfs.FS
	c    *fsCounters
	mode *atomic.Int32
}

func newCountingFS(mode int32) countingFS {
	m := &atomic.Int32{}
	m.Store(mode)
	return countingFS{FS: vfs.OS{}, c: &fsCounters{}, mode: m}
}

func (fs countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: fs}, nil
}

func (fs countingFS) Create(path string) (vfs.File, error) { return fs.wrap(fs.FS.Create(path)) }
func (fs countingFS) OpenAppend(path string) (vfs.File, error) {
	return fs.wrap(fs.FS.OpenAppend(path))
}

type countingFile struct {
	vfs.File
	fs countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	if f.fs.mode.Load() != syncSkip {
		f.fs.c.writes.Add(1)
		f.fs.c.writeBytes.Add(int64(len(p)))
	}
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	mode := f.fs.mode.Load()
	if mode == syncSkip {
		return nil
	}
	start := time.Now()
	if mode == syncModel {
		time.Sleep(fsyncModel)
	}
	realStart := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.fs.c.syncs.Add(1)
	f.fs.c.syncNS.Add(end.Sub(start).Nanoseconds())
	f.fs.c.syncRealNS.Add(end.Sub(realStart).Nanoseconds())
	return err
}

// fsSnapshot is a copy of the counters, so a phase can report deltas.
type fsSnapshot struct {
	writes, writeBytes, syncs, syncNS, syncRealNS int64
}

func (c *fsCounters) snapshot() fsSnapshot {
	return fsSnapshot{
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(),
		syncs: c.syncs.Load(), syncNS: c.syncNS.Load(), syncRealNS: c.syncRealNS.Load(),
	}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{
		writes: a.writes - b.writes, writeBytes: a.writeBytes - b.writeBytes,
		syncs: a.syncs - b.syncs, syncNS: a.syncNS - b.syncNS, syncRealNS: a.syncRealNS - b.syncRealNS,
	}
}
