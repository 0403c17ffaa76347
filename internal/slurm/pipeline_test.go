package slurm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/vfs"
)

// The commit pipeline: the apply stage under Controller.mu, then stage L
// (local append + fsync) and stage R (replicate) outside it. These tests hold
// stage L at its fsync with a gate filesystem, so what is pending, in flight
// and durable at each step is fixed rather than raced.

// gateFS hands every Sync of a file opened through it to a hook, once one is
// set: the seam the tests hold stage L's fsync on.
type gateFS struct {
	vfs.FS
	hook *atomic.Pointer[func() error]
}

type gateFile struct {
	vfs.File
	hook *atomic.Pointer[func() error]
}

func newGateFS() gateFS { return gateFS{FS: vfs.OS{}, hook: new(atomic.Pointer[func() error])} }

// set installs the hook every later Sync runs first.
func (f gateFS) set(h func() error) { f.hook.Store(&h) }

func (f gateFS) Create(path string) (vfs.File, error) {
	file, err := f.FS.Create(path)
	return gateFile{file, f.hook}, err
}

func (f gateFS) OpenAppend(path string) (vfs.File, error) {
	file, err := f.FS.OpenAppend(path)
	return gateFile{file, f.hook}, err
}

func (f gateFile) Sync() error {
	if h := f.hook.Load(); h != nil {
		if err := (*h)(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// heldSync is a gate hook that parks the first Sync after arm until open,
// telling entered when it arrives; with fail set the parked Sync then fails.
// Unarmed, Syncs pass. The test's cleanup opens it too, so a test that fails
// while a commit is parked ends instead of hanging in Close.
type heldSync struct {
	armed   atomic.Bool
	fail    atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *heldSync) open() { h.once.Do(func() { close(h.release) }) }

func newHeldSync(t *testing.T, fs gateFS) *heldSync {
	h := &heldSync{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(h.open)
	fs.set(func() error {
		if !h.armed.CompareAndSwap(true, false) {
			return nil
		}
		close(h.entered)
		<-h.release
		if h.fail.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	})
	return h
}

// pendingLen reports how many applied groups wait for stage L.
func pendingLen(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// openGated opens a journaled controller on a gate filesystem.
func openGated(t *testing.T, dir string) (*Controller, gateFS) {
	t.Helper()
	fs := newGateFS()
	c, err := OpenJournaledFS(testControllerConfig(), fs, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fs
}

// submitAsync submits one tokened job named name in the background; the
// returned channel yields the job ID and the error.
type submitResult struct {
	id  cluster.JobID
	err error
}

func submitAsync(c *Controller, token, name string) <-chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		id, err := c.SubmitToken(token, "minife", 1, 600, 300, name)
		out <- submitResult{id, err}
	}()
	return out
}

// notYet fails the test if ch delivers within a short grace period.
func notYet[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s returned while its commit was held at the fsync", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// jobsNamed counts the live and terminal jobs called name.
func jobsNamed(c *Controller, name string) int {
	n := 0
	for _, q := range append(c.Queue(), c.History()...) {
		if q.Name == name {
			n++
		}
	}
	return n
}

// TestHAGroupCommitConcurrent is the concurrent twin of
// TestHAOneAppendPerMutation: callers submit at once, and every commit —
// one primary write and fsync, one replicate request, one standby write and
// fsync — carries all the groups applied while the one before it was
// syncing. The gate holds each of the primary's fsyncs until every caller of
// the round that is not in the batch has its group pending, so each round
// commits in at most two batches. Both journals are byte-identical to each
// other and to the one-record-per-append reference of the same operations in
// applied order, and every acknowledged token is there after reopen.
func TestHAGroupCommitConcurrent(t *testing.T) {
	const callers, rounds = 6, 4
	cfg := testControllerConfig()
	front := startReplicaFront(t)
	gate := newGateFS()
	aFS, bFS := &ioCountFS{FS: gate}, &ioCountFS{FS: vfs.OS{}}
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

	// committed is how many groups of the round are durable; only stage L's
	// goroutine (inside Sync) touches it, one commit at a time.
	var commits, committed int
	gate.set(func() error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			a.mu.Lock()
			notDurable := 0
			for _, c := range a.flight {
				select {
				case <-c.durable:
				default:
					notDurable++ // in this batch or pending behind it
				}
			}
			batch := notDurable - len(a.pending)
			a.mu.Unlock()
			if notDurable == callers-committed {
				commits++
				if committed += batch; committed == callers {
					committed = 0
				}
				return nil
			}
			if time.Now().After(deadline) {
				t.Errorf("gate: %d groups not durable after 10s, want %d", notDurable, callers-committed)
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})

	w0, s0 := aFS.counts()
	bw0, bs0 := bFS.counts()
	r0 := front.withEntries.Load()
	acked := make(map[string]cluster.JobID)
	for r := 0; r < rounds; r++ {
		res := make([]<-chan submitResult, callers)
		for i := range res {
			res[i] = submitAsync(a, fmt.Sprintf("tok-%d-%d", r, i), fmt.Sprintf("j%d-%d", r, i))
		}
		for i, ch := range res {
			got := <-ch
			if got.err != nil {
				t.Fatalf("round %d caller %d: %v", r, i, got.err)
			}
			acked[fmt.Sprintf("tok-%d-%d", r, i)] = got.id
		}
	}
	w, s := aFS.counts()
	bw, bs := bFS.counts()
	got := [5]int64{w - w0, s - s0, bw - bw0, bs - bs0, front.withEntries.Load() - r0}
	mutations := callers * rounds
	if want := [5]int64{int64(commits), int64(commits), int64(commits), int64(commits), int64(commits)}; got != want || commits >= mutations {
		t.Fatalf("%d mutations in %d commits cost %v (primary writes/fsyncs, standby writes/fsyncs, replicate requests), want %d each and fewer commits than mutations",
			mutations, commits, got, commits)
	}

	if sa, sb := stateOf(a), stateOf(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("standby state diverges from primary\nprimary %+v\nstandby %+v", sa, sb)
	}
	ja, jb := readFileT(t, journalFile(aDir)), readFileT(t, journalFile(bDir))
	if !bytes.Equal(ja, jb) {
		t.Fatalf("standby journal (%d bytes) not byte-identical to the primary's (%d bytes)", len(jb), len(ja))
	}
	var trace []Entry
	for _, e := range a.entries {
		if e.Op != "record" {
			e.Seq, e.Epoch, e.ID = 0, 0, 0
			trace = append(trace, e)
		}
	}
	if want := referenceJournal(t, vfs.OS{}, trace, 1); !bytes.Equal(ja, want) {
		t.Fatalf("journal (%d bytes) differs from the one-record-per-append reference of the applied order (%d bytes)", len(ja), len(want))
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournaled(cfg, aDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for tok, id := range acked {
		if re.tokens[tok] != id {
			t.Fatalf("acknowledged token %s (job %d) maps to job %d after reopen", tok, id, re.tokens[tok])
		}
	}
}

// TestPipelineReadWaitsForAck: a queue read sent while a submit's commit is
// held at the fsync returns only once the submit is acknowledged, and then
// lists the job — a read never sees state that is not yet durable.
func TestPipelineReadWaitsForAck(t *testing.T) {
	c, fs := openGated(t, t.TempDir())
	held := newHeldSync(t, fs)
	held.armed.Store(true)
	sub := submitAsync(c, "tok-a", "a")
	<-held.entered

	read := make(chan []JobInfo, 1)
	go func() { read <- c.Queue() }()
	notYet(t, read, "queue")
	held.open()
	got := <-sub
	if got.err != nil {
		t.Fatal(got.err)
	}
	q := <-read
	if len(q) != 1 || q[0].ID != int64(got.id) {
		t.Fatalf("queue read behind the held submit = %+v, want job %d", q, got.id)
	}
}

// TestPipelineTokenRetryJoinsInFlight: a repeat of an idempotency token
// whose first attempt is still committing waits for that attempt and gets
// its outcome — the same job ID once it is acknowledged. If the first
// attempt's commit fails, the repeat is enqueued afresh, and the job exists
// exactly once after reopen.
func TestPipelineTokenRetryJoinsInFlight(t *testing.T) {
	dir := t.TempDir()
	c, fs := openGated(t, dir)

	held := newHeldSync(t, fs)
	held.armed.Store(true)
	first := submitAsync(c, "tok-1", "one")
	<-held.entered
	retry := submitAsync(c, "tok-1", "one")
	notYet(t, retry, "token retry")
	held.open()
	f, r := <-first, <-retry
	if f.err != nil || r.err != nil || r.id != f.id {
		t.Fatalf("first attempt (%d, %v), retry (%d, %v): want the same ID, both acknowledged", f.id, f.err, r.id, r.err)
	}

	held = newHeldSync(t, fs)
	held.fail.Store(true)
	held.armed.Store(true)
	first = submitAsync(c, "tok-2", "two")
	<-held.entered
	retry = submitAsync(c, "tok-2", "two")
	notYet(t, retry, "token retry")
	held.open()
	f, r = <-first, <-retry
	if !errors.Is(f.err, ErrJournalAppend) {
		t.Fatalf("first attempt with a failing fsync = %v, want ErrJournalAppend", f.err)
	}
	if r.err != nil || r.id == f.id {
		t.Fatalf("retry behind the failed attempt = (%d, %v), want a fresh job (the failed attempt burned %d)", r.id, r.err, f.id)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournaled(testControllerConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := jobsNamed(re, "two"); n != 1 || re.tokens["tok-2"] != r.id {
		t.Fatalf("after reopen: %d jobs named two, tok-2 → job %d; want 1 and job %d", n, re.tokens["tok-2"], r.id)
	}
}

// TestPipelineFailedBatchFailsEverythingBehind: a failed append of a batch
// of two groups fails both tickets and the group applied behind it while
// the append was failing, and leaves the journal, c.seq and the in-memory
// log as the last durable batch left them; a retried submit is one job
// after reopen.
func TestPipelineFailedBatchFailsEverythingBehind(t *testing.T) {
	dir := t.TempDir()
	c, fs := openGated(t, dir)
	held := newHeldSync(t, fs)
	held.armed.Store(true)
	a := submitAsync(c, "tok-a", "a")
	<-held.entered

	// Two groups pile up behind a's held commit: stage L takes them as one
	// batch, whose append fails once a third group is applied behind it.
	// Only that append fails: the third group fails because it was built on
	// the failed batch, not because the disk refused it too.
	b1, b2 := submitAsync(c, "tok-b1", "b1"), submitAsync(c, "tok-b2", "b2")
	waitFor(t, 5*time.Second, "two pending groups", func() bool { return pendingLen(c) == 2 })
	failing, behind := make(chan struct{}), make(chan struct{})
	var appends atomic.Int64
	c.jr.testAppendErr = func(Entry) error {
		if appends.Add(1) > 1 {
			return nil
		}
		close(failing)
		<-behind
		return errors.New("disk full")
	}
	held.open()
	if got := <-a; got.err != nil {
		t.Fatal(got.err)
	}
	<-failing
	c.mu.Lock()
	seq, entries := c.seq, len(c.entries)
	c.mu.Unlock()
	file := readFileT(t, journalFile(dir))
	c3 := submitAsync(c, "tok-c", "c")
	waitFor(t, 5*time.Second, "a group applied behind the failing batch", func() bool { return pendingLen(c) == 1 })
	close(behind)
	for name, ch := range map[string]<-chan submitResult{"b1": b1, "b2": b2, "c": c3} {
		if got := <-ch; !errors.Is(got.err, ErrJournalAppend) {
			t.Fatalf("submit %s = %v, want ErrJournalAppend", name, got.err)
		}
	}
	c.mu.Lock()
	c.jr.testAppendErr = nil
	gotSeq, gotEntries := c.seq, len(c.entries)
	c.mu.Unlock()
	if got := readFileT(t, journalFile(dir)); !bytes.Equal(got, file) || gotSeq != seq || gotEntries != entries {
		t.Fatalf("after the failed batch: journal %d → %d bytes, seq %d → %d, in-memory log %d → %d entries; want all unchanged",
			len(file), len(got), seq, gotSeq, entries, gotEntries)
	}

	if _, err := c.SubmitToken("tok-b1", "minife", 1, 600, 300, "b1"); err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournaled(testControllerConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, want := range map[string]int{"a": 1, "b1": 1, "b2": 0, "c": 0} {
		if n := jobsNamed(re, name); n != want {
			t.Fatalf("after reopen: %d jobs named %s, want %d", n, name, want)
		}
	}
}

// TestPipelineHealthDuringStalledReplication: health answers at once while
// a submit's replicate round trip is black-holed behind a chaos proxy — the
// round trip holds no lock that health takes.
func TestPipelineHealthDuringStalledReplication(t *testing.T) {
	a, b := startNode(t), startNode(t)
	link, err := chaos.Listen(b.addr, chaos.Config{Name: "link"})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	const lease = 4 * time.Second // replicate round trips time out after lease/4
	if err := a.ctl.StartHA(HAOptions{Peer: link.Addr(), Lease: lease}); err != nil {
		t.Fatal(err)
	}
	if err := b.ctl.StartHA(HAOptions{Standby: true, Peer: a.addr, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ctl.Submit("minife", 1, 600, 300, "warm"); err != nil {
		t.Fatal(err)
	}

	link.Partition()
	stalled := submitAsync(a.ctl, "tok-s", "stalled")
	notYet(t, stalled, "submit behind a partitioned standby")
	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	h := a.ctl.Health()
	wire, err := cl.Health()
	if took := time.Since(start); err != nil || took > lease/8 {
		t.Fatalf("health during the stalled round trip took %v (%q, wire %q, %v), want an answer at once", took, h, wire, err)
	}
	select {
	case <-stalled:
		t.Fatal("the submit returned before health was asked: nothing was stalled")
	default:
	}
	link.Heal()
	if got := <-stalled; !errors.Is(got.err, errReplication) {
		t.Fatalf("submit whose round trip was black-holed = %v, want a replication error", got.err)
	}
}
