package slurm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acct"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/lineproto"
	"repro/internal/vfs"
)

// One mutation, one append. The unit of durability is the mutation — the
// operation entry plus the completion records it caused — on the primary's
// disk, on the wire to the standby, and on the standby's disk. These tests
// count the trips to storage with a counting filesystem (host-independent:
// counts, not milliseconds) and hold the bytes against a reference that
// journals the same trace the old way, one record per append.

// ioCountFS counts the Write and Sync calls made on files opened through it.
type ioCountFS struct {
	vfs.FS
	writes, syncs atomic.Int64
}

type ioCountFile struct {
	vfs.File
	fs *ioCountFS
}

func (f *ioCountFS) Create(path string) (vfs.File, error) {
	file, err := f.FS.Create(path)
	return ioCountFile{file, f}, err
}

func (f *ioCountFS) OpenAppend(path string) (vfs.File, error) {
	file, err := f.FS.OpenAppend(path)
	return ioCountFile{file, f}, err
}

func (f ioCountFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f ioCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (f *ioCountFS) counts() (writes, syncs int64) { return f.writes.Load(), f.syncs.Load() }

// groupTrace generates a seeded run of n operations — submits (some with no
// walltime slack), advances that complete a varying number of jobs, cancels
// of a pending job — every one of which a controller of testControllerConfig
// accepts. Submits carry idempotency tokens; IDs are left for the controller
// to assign.
func groupTrace(t *testing.T, seed uint64, n int) []Entry {
	t.Helper()
	rng := des.NewRNG(seed).Stream("slurm/group-trace")
	scout, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"minife", "gtc", "milc"}
	var trace []Entry
	for len(trace) < n {
		var e Entry
		switch r := rng.Intn(10); {
		case r < 6:
			runtime := float64(60 + rng.Intn(600))
			wall := 2 * runtime
			if rng.Intn(5) == 0 {
				wall = runtime // no slack: killed at its limit if sharing slows it
			}
			e = Entry{Op: "submit", App: apps[rng.Intn(len(apps))], Nodes: 1 + rng.Intn(4),
				Walltime: wall, Runtime: runtime, Name: fmt.Sprintf("j%d", len(trace)),
				Token: fmt.Sprintf("tok-%d-%d", seed, len(trace))}
		case r < 8:
			e = Entry{Op: "advance", Seconds: float64(50 + rng.Intn(400))}
		default:
			for _, q := range scout.Queue() {
				if q.State == job.Pending.String() {
					e = Entry{Op: "cancel", ID: q.ID}
					break
				}
			}
			if e.Op == "" {
				continue // nothing pending to cancel
			}
		}
		op := e // mutate fills in the assigned ID
		if err := scout.mutate(budget{}, &e); err != nil {
			t.Fatalf("trace op %d (%s): %v", len(trace), op.Op, err)
		}
		trace = append(trace, op)
	}
	return trace
}

// runTrace drives the trace through the controller's live write path.
func runTrace(t *testing.T, c *Controller, trace []Entry) {
	t.Helper()
	for i, op := range trace {
		e := op
		if err := c.mutate(budget{}, &e); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Op, err)
		}
	}
}

// referenceJournal is the unoptimised write path, kept here as the
// differential's other side: it runs the trace against an in-memory
// controller and journals the operation and then each completion record as
// its own append — one write and one fsync per record — under the given
// epoch. It returns the journal's bytes.
func referenceJournal(t *testing.T, fsys vfs.FS, trace []Entry, epoch int64) []byte {
	t.Helper()
	dir := t.TempDir()
	ref, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, _, _, err := openJournal(fsys, dir, 0, CorruptFail)
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	one := func(e Entry) {
		seq++
		e.Seq, e.Epoch = seq, epoch
		if err := j.append([]Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	var fin, killed, rej int
	audit := func(jobs []*job.Job, seen *int) {
		for ; *seen < len(jobs); *seen++ {
			rec := acct.FromJob(jobs[*seen])
			one(Entry{Op: "record", Record: &rec})
		}
	}
	for i, op := range trace {
		e := op
		if err := ref.mutate(budget{}, &e); err != nil {
			t.Fatalf("reference op %d (%s): %v", i, op.Op, err)
		}
		one(e)
		audit(ref.eng.Finished(), &fin)
		audit(ref.eng.Killed(), &killed)
		audit(ref.eng.Rejected(), &rej)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	return readFileT(t, journalFile(dir))
}

// TestJournalOneAppendPerMutation: over a seeded submit/advance/cancel/drain
// trace a journaled controller makes exactly one write and one fsync per
// mutation, however many completion records the mutation caused, and the
// file is byte-for-byte what one record per append produces.
func TestJournalOneAppendPerMutation(t *testing.T) {
	trace := append(groupTrace(t, 20, 80), Entry{Op: "drain"})
	fsys := &ioCountFS{FS: vfs.OS{}}
	dir := t.TempDir()
	c, err := OpenJournaledFS(testControllerConfig(), fsys, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w0, s0 := fsys.counts()
	runTrace(t, c, trace)
	writes, syncs := fsys.counts()
	writes, syncs = writes-w0, syncs-s0
	records := len(c.entries)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := int64(len(trace)); writes != n || syncs != n {
		t.Fatalf("%d mutations (%d records) cost %d writes and %d fsyncs, want %d of each", n, records, writes, syncs, n)
	}
	if records < len(trace)+len(trace)/4 {
		t.Fatalf("trace of %d mutations journaled only %d records: it exercises no multi-record groups", len(trace), records)
	}

	refFS := &ioCountFS{FS: vfs.OS{}}
	want := referenceJournal(t, refFS, trace, 0)
	if _, refSyncs := refFS.counts(); refSyncs < int64(records) {
		t.Fatalf("reference made %d fsyncs for %d records: it is not one record per append", refSyncs, records)
	}
	if got := readFileT(t, journalFile(dir)); !bytes.Equal(got, want) {
		t.Fatalf("journal (%d bytes) differs from the one-record-per-append reference (%d bytes)", len(got), len(want))
	}
}

// replicaFront is the standby's listener in these tests: a line-protocol
// server that hands each replicate request to whichever controller currently
// plays the standby (none while it is "down") and counts the requests that
// carry entries.
type replicaFront struct {
	lp          lineproto.Server
	addr        string
	standby     atomic.Pointer[Controller]
	withEntries atomic.Int64
}

func startReplicaFront(t *testing.T) *replicaFront {
	t.Helper()
	f := &replicaFront{}
	f.lp.Open = func(int64) lineproto.Handler {
		return func(line []byte) (any, bool) {
			var req Request
			if err := json.Unmarshal(line, &req); err != nil || req.Op != "replicate" {
				return Response{Error: "replica front: want a replicate request"}, true
			}
			ctl := f.standby.Load()
			if ctl == nil {
				return Response{Error: "standby down"}, true
			}
			if len(req.Entries) > 0 {
				f.withEntries.Add(1)
			}
			return ctl.HandleReplicate(req), false
		}
	}
	addr, err := f.lp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = addr
	t.Cleanup(f.lp.Close)
	return f
}

// haLongLease keeps heartbeats, fencing and promotion out of a test that
// counts round trips.
const haLongLease = time.Minute

// openStandby opens a journaled controller on dir and starts it as the
// standby behind front.
func openStandby(t *testing.T, front *replicaFront, fsys vfs.FS, dir string) *Controller {
	t.Helper()
	ctl, err := OpenJournaledFS(testControllerConfig(), fsys, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.StartHA(HAOptions{Standby: true, Peer: "127.0.0.1:1", Lease: haLongLease}); err != nil {
		t.Fatal(err)
	}
	front.standby.Store(ctl)
	return ctl
}

// TestHAOneAppendPerMutation: on an HA pair a mutation is one write and one
// fsync on the primary, one replicate request, and one write and one fsync on
// the standby; a group larger than replicateBatch travels and lands in
// ⌈n/replicateBatch⌉ pieces. Both journals are byte-identical to each other
// and to the one-record-per-append reference.
func TestHAOneAppendPerMutation(t *testing.T) {
	cfg := testControllerConfig()
	front := startReplicaFront(t)
	aFS, bFS := &ioCountFS{FS: vfs.OS{}}, &ioCountFS{FS: vfs.OS{}}
	aDir, bDir := t.TempDir(), t.TempDir()
	a, err := OpenJournaledFS(cfg, aFS, aDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := openStandby(t, front, bFS, bDir)
	if err := a.StartHA(HAOptions{Peer: front.addr, Lease: haLongLease}); err != nil {
		t.Fatal(err)
	}

	type counts struct{ aW, aS, bW, bS, reqs int64 }
	read := func() (c counts) {
		c.aW, c.aS = aFS.counts()
		c.bW, c.bS = bFS.counts()
		c.reqs = front.withEntries.Load()
		return c
	}
	since := func(from counts) counts {
		c := read()
		return counts{c.aW - from.aW, c.aS - from.aS, c.bW - from.bW, c.bS - from.bS, c.reqs - from.reqs}
	}

	// A mixed trace, then enough short jobs that the closing drain completes
	// more than one replicate batch of them.
	trace := groupTrace(t, 21, 60)
	for i := 0; i < replicateBatch+20; i++ {
		trace = append(trace, Entry{Op: "submit", App: "minife", Nodes: 1, Walltime: 120, Runtime: 60,
			Name: fmt.Sprintf("fill%d", i), Token: fmt.Sprintf("fill-%d", i)})
	}
	start := read()
	runTrace(t, a, trace)
	n := int64(len(trace))
	if got, want := since(start), (counts{n, n, n, n, n}); got != want {
		t.Fatalf("%d mutations cost %+v, want %+v (primary writes/fsyncs, standby writes/fsyncs, replicate requests with entries)", n, got, want)
	}

	start = read()
	before := len(a.entries)
	runTrace(t, a, []Entry{{Op: "drain"}})
	group := len(a.entries) - before
	if group <= replicateBatch+1 {
		t.Fatalf("drain produced a group of %d entries, want more than one replicate batch (%d)", group, replicateBatch)
	}
	pieces := int64((group + replicateBatch - 1) / replicateBatch)
	if got, want := since(start), (counts{1, 1, pieces, pieces, pieces}); got != want {
		t.Fatalf("a drain of %d entries cost %+v, want %+v", group, got, want)
	}

	if sa, sb := stateOf(a), stateOf(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("standby state diverges from primary\nprimary %+v\nstandby %+v", sa, sb)
	}
	ja, jb := readFileT(t, journalFile(aDir)), readFileT(t, journalFile(bDir))
	if !bytes.Equal(ja, jb) {
		t.Fatalf("standby journal (%d bytes) not byte-identical to the primary's (%d bytes)", len(jb), len(ja))
	}
	want := referenceJournal(t, vfs.OS{}, append(trace, Entry{Op: "drain"}), 1)
	if !bytes.Equal(ja, want) {
		t.Fatalf("journal (%d bytes) differs from the one-record-per-append reference (%d bytes)", len(ja), len(want))
	}
}

// TestJournalFailedGroupLeavesNothing pins the "failed but durable" bug: when
// a completion record's append failed after the operation entry had been
// fsynced, the operation was reported failed although it was in the journal —
// an advance replayed after restart, and a submit's idempotency token was
// withdrawn, so the client's retry enqueued a second job. The group is
// atomic now: after the error the journal is byte-for-byte what it was, the
// Seq is unchanged, and the retried submit is one job after reopen.
func TestJournalFailedGroupLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	c, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitToken("tok-a", "minife", 1, 600, 100, "a"); err != nil {
		t.Fatal(err)
	}
	c.jr.testAppendErr = func(e Entry) error {
		if e.Op == "record" {
			return errors.New("disk full")
		}
		return nil
	}
	unchanged := func(ctx string, file []byte, seq int64, entries int) {
		t.Helper()
		if got := readFileT(t, journalFile(dir)); !bytes.Equal(got, file) {
			t.Fatalf("%s: the journal changed under a failed mutation (%d → %d bytes)", ctx, len(file), len(got))
		}
		if c.seq != seq || len(c.entries) != entries {
			t.Fatalf("%s: seq %d → %d, in-memory log %d → %d entries under a failed mutation", ctx, seq, c.seq, entries, len(c.entries))
		}
	}
	file, seq, entries := readFileT(t, journalFile(dir)), c.seq, len(c.entries)

	// The advance completes job a, so its group is advance + record.
	if _, err := c.AdvanceChecked(200); !errors.Is(err, ErrJournalAppend) {
		t.Fatalf("advance with a failing record append = %v, want ErrJournalAppend", err)
	}
	unchanged("advance", file, seq, entries)
	// The completion is still unaudited, so it rides with the next mutation.
	if _, err := c.SubmitToken("tok-b", "gtc", 1, 600, 100, "b"); !errors.Is(err, ErrJournalAppend) {
		t.Fatalf("submit with a failing record append = %v, want ErrJournalAppend", err)
	}
	unchanged("submit", file, seq, entries)

	c.jr.testAppendErr = nil
	if _, err := c.SubmitToken("tok-b", "gtc", 1, 600, 100, "b"); err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	var ops []string
	for _, e := range c2.entries {
		ops = append(ops, e.Op)
	}
	if want := []string{"submit", "submit", "record"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("journal after reopen holds %v, want %v", ops, want)
	}
	named := 0
	for _, q := range append(c2.Queue(), c2.History()...) {
		if q.Name == "b" {
			named++
		}
	}
	if named != 1 {
		t.Fatalf("%d jobs named b after reopen, want exactly 1", named)
	}
}

// TestHAStandbyStoppedMidGroupConverges: a standby that died while a group
// was landing holds a whole-frame prefix of it (operation first). After its
// restart the primary resends from further back than the standby got; the
// standby skips what it already has, applies and persists the rest, and the
// two journals are byte-identical.
func TestHAStandbyStoppedMidGroupConverges(t *testing.T) {
	cfg := testControllerConfig()
	front := startReplicaFront(t)
	aDir, bDir := t.TempDir(), t.TempDir()
	a, err := OpenJournaled(cfg, aDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := openStandby(t, front, vfs.OS{}, bDir)
	if err := a.StartHA(HAOptions{Peer: front.addr, Lease: haLongLease}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Submit("minife", 1, 600, 100, fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// The standby goes down; the primary's next mutation — an advance that
	// completes all four jobs — is locally durable but unreplicated.
	front.standby.Store(nil)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	prefix := int64(len(readFileT(t, journalFile(aDir))))
	groupStart := a.seq
	if _, err := a.AdvanceChecked(300); !errors.Is(err, errReplication) {
		t.Fatalf("advance with the standby down = %v, want a replication error", err)
	}
	if got := a.seq - groupStart; got != 5 {
		t.Fatalf("advance journaled a group of %d entries, want 5 (advance + 4 records)", got)
	}

	// What the dead standby's disk holds: the advance, one record, and a torn
	// piece of the next.
	ja := readFileT(t, journalFile(aDir))
	scan := scanFile(ja, "primary", false)
	cut := prefix
	for i, off := 0, prefix; i < 2; i++ {
		off += int64(bytes.IndexByte(ja[off:], '\n')) + 1
		cut = off
	}
	writeFile(t, journalFile(bDir), ja[:cut+7])
	b2 := openStandby(t, front, vfs.OS{}, bDir)
	if b2.Recovery().TornBytes != 7 || b2.seq != groupStart+2 {
		t.Fatalf("restarted standby recovered seq %d with %d torn bytes, want seq %d (mid-group) and 7", b2.seq, b2.Recovery().TornBytes, groupStart+2)
	}

	// The primary still believes the standby is at groupStart, so the resend
	// overlaps what the standby already holds.
	if err := a.resend(); err != nil {
		t.Fatalf("resend after the standby's restart: %v", err)
	}
	if b2.seq != a.seq || len(b2.entries) != len(scan.entries) {
		t.Fatalf("standby at seq %d with %d entries, primary at seq %d with %d", b2.seq, len(b2.entries), a.seq, len(scan.entries))
	}
	if sa, sb := stateOf(a), stateOf(b2); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("standby state diverges from primary\nprimary %+v\nstandby %+v", sa, sb)
	}
	if jb := readFileT(t, journalFile(bDir)); !bytes.Equal(ja, jb) {
		t.Fatalf("standby journal (%d bytes) not byte-identical to the primary's (%d bytes)", len(jb), len(ja))
	}
	if _, err := os.Stat(snapshotFile(bDir)); err == nil {
		t.Fatal("standby converged through a full resync, not by deduping the resend")
	}
}
