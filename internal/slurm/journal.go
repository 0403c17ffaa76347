package slurm

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/acct"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Crash recovery. slurmctld survives restarts by writing StateSaveLocation;
// this controller does the same with a write-ahead journal of every external
// operation (submit, cancel, advance, node state changes). The simulation is
// deterministic, so replaying the journal against a fresh controller rebuilds
// the exact pre-crash state — queue, running set, node states, and clock.
// Completions additionally append audit entries embedding the acct.Record
// format; replay skips them (they are outputs, not inputs), but they make the
// journal a complete accounting trail on their own.
//
// Both files are internal/wal logs (frames, checksums, and the clean / torn /
// corrupt classification live there); this file is the record schema and the
// policy on top. A snapshot compacts the log: the journal's entries are
// folded into snapshot.jsonl (a manifest-sealed file) with an atomic
// tmp+rename, and the journal truncated. Recovery reads snapshot then
// journal, verifying every record:
//
//   - clean → replay everything.
//   - torn journal tail (crash mid-append) → truncate it away, replay the
//     prefix. The torn bytes were never acknowledged.
//   - corrupt journal, or a snapshot — which is written atomically and can
//     never legally be torn — damaged at all, or a sequence gap between the
//     two. Policy CorruptFail (default) refuses to start, naming
//     `mini-slurm fsck`; CorruptQuarantine salvages the committed prefix,
//     copies the damaged records to quarantine.jsonl, and starts read-only
//     (DEGRADED). A non-empty file with no verifiable header — plain JSONL,
//     say — is corrupt: it is never parsed and never treated as empty.
//
// Recovery never silently skips a damaged record and continues past it:
// the replayed state is always a committed prefix or a loud refusal.
//
// Within one file, sequence numbers must be strictly consecutive: the
// controller stamps Seq = prev+1 on every entry, so a gap or regression
// inside a file is damage, not history.
//
// All file I/O goes through vfs.FS so tests can inject torn writes, fsync
// failures, bit rot, and crash points on every path below.

// journalHeader is the first line of every journal or snapshot file.
const journalHeader = "#mini-slurm-journal v2 crc32c"

// Entry is one journal line: an external operation to replay, or an audit
// record (Op "record") to skip.
type Entry struct {
	Seq int64  `json:"seq"`
	Op  string `json:"op"`
	// Epoch is the HA term the entry was written under. Standalone
	// controllers leave it zero (omitted), keeping the journal format
	// byte-identical to pre-HA releases; replicated controllers stamp every
	// entry so a deposed primary's stale appends are detectable (see ha.go).
	Epoch int64 `json:"epoch,omitempty"`
	// Submit arguments; ID doubles as the expected assigned job ID, which
	// replay verifies to catch divergence.
	App      string  `json:"app,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Walltime float64 `json:"walltime,omitempty"`
	Runtime  float64 `json:"runtime,omitempty"`
	Name     string  `json:"name,omitempty"`
	After    []int64 `json:"after,omitempty"`
	ID       int64   `json:"id,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Node     int     `json:"node,omitempty"`
	// Token is the submit idempotency token (empty when the client sent
	// none); journaling it makes submit dedupe survive crash recovery.
	Token string `json:"token,omitempty"`
	// Record is the audit payload of a completion entry.
	Record *acct.Record `json:"record,omitempty"`
}

// Typed journal failures. The append path and the compaction path are wrapped
// distinctly so the overload circuit breaker's operators can tell "stable
// storage refused the write" from "folding the log failed" when the
// controller enters DEGRADED mode; errors.Is works against both sentinels.
var (
	// ErrJournalAppend wraps failures to durably append an entry.
	ErrJournalAppend = errors.New("slurm: journal append failed")
	// ErrJournalCompact wraps failures to fold the journal into the
	// snapshot (or to rewrite it during an HA full resync).
	ErrJournalCompact = errors.New("slurm: journal compaction failed")
)

// journalOpError tags an underlying storage error with the path (append vs
// compact) it failed on. errors.Is matches the tag and the wrapped error.
type journalOpError struct {
	kind error
	err  error
}

func (e *journalOpError) Error() string        { return e.kind.Error() + ": " + e.err.Error() }
func (e *journalOpError) Is(target error) bool { return target == e.kind }
func (e *journalOpError) Unwrap() error        { return e.err }

func journalErr(kind, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, kind) {
		return err // already tagged (compact failures inside append)
	}
	return &journalOpError{kind: kind, err: err}
}

// journalSyncErrors counts the storage failures the journal tolerates —
// directory fsyncs and inline compactions — across the process, so soak runs
// can detect flaky storage (expvar "journal_sync_errors").
var journalSyncErrors = expvar.NewInt("journal_sync_errors")

var syncDirWarnOnce, compactWarnOnce sync.Once

// syncDir fsyncs a directory so renames and file creations inside it survive
// power loss. Filesystems that don't support directory fsync report an error
// we tolerate — on those, the rename itself is the best available — but
// every failure is counted in journal_sync_errors and the first one is
// logged, so persistent storage flakiness is visible instead of silent.
func syncDir(fsys vfs.FS, dir string) {
	if err := fsys.SyncDir(dir); err != nil {
		journalSyncErrors.Add(1)
		syncDirWarnOnce.Do(func() {
			log.Printf("slurm: journal: directory fsync of %s failed (renames may not survive power loss; counting in journal_sync_errors): %v", dir, err)
		})
	}
}

// journal is the append side of the write-ahead log. The unit of durability
// is the stage-L batch: the groups of the mutations applied since the last
// commit — each an operation entry and the completion records it caused —
// are one append, one write and one fsync, synced to stable storage before
// any of them is acknowledged. A sequential caller's batch is its one
// mutation. Sequence numbers are assigned by the controller (which also owns
// the in-memory copy of the log for replication); the journal persists
// entries exactly as given. Only one goroutine appends at a time: stage L on
// a primary, the replicate handler on a standby, which first waits for
// stage L to go idle.
type journal struct {
	fs  vfs.FS
	dir string
	// log is the live journal's append handle; nil after a failed compaction
	// step closed it — the next append heals via ensureLog.
	log   *wal.Log
	every int // compact after this many entries (0 = never)
	ops   int // entries appended since the last compaction

	// testAppendErr, when set, is consulted for each entry of a group before
	// anything is written; a non-nil return aborts the whole append with that
	// error. Tests use it to simulate a failing fsync path and exercise the
	// circuit breaker.
	testAppendErr func(Entry) error
}

func snapshotFile(dir string) string   { return filepath.Join(dir, "snapshot.jsonl") }
func journalFile(dir string) string    { return filepath.Join(dir, "journal.jsonl") }
func quarantineFile(dir string) string { return filepath.Join(dir, "quarantine.jsonl") }

// CorruptPolicy selects what recovery does with a journal or snapshot
// record that fails verification mid-log (torn tails are always salvaged).
type CorruptPolicy string

const (
	// CorruptFail (the default) refuses to start on corruption, directing
	// the operator at `mini-slurm fsck`.
	CorruptFail CorruptPolicy = "fail"
	// CorruptQuarantine salvages the committed prefix, copies damaged
	// records to quarantine.jsonl, and starts the controller read-only
	// (DEGRADED) so an operator or an HA full resync can reconcile.
	CorruptQuarantine CorruptPolicy = "quarantine"
)

// Validate checks the policy name ("" selects CorruptFail).
func (p CorruptPolicy) Validate() error {
	switch p {
	case "", CorruptFail, CorruptQuarantine:
		return nil
	}
	return fmt.Errorf("slurm: unknown JournalCorruptPolicy %q (want FAIL or QUARANTINE)", string(p))
}

// FileDamage is one damaged record, attributed to its file, as reported by
// recovery and fsck.
type FileDamage struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Offset int64  `json:"offset"`
	Reason string `json:"reason"`
	// RawB64 carries the damaged bytes (base64) into quarantine sidecars.
	RawB64 string `json:"raw_b64,omitempty"`
}

// RecoveryInfo summarizes what opening a journal directory found and did.
type RecoveryInfo struct {
	// Entries is the number of committed entries recovered.
	Entries int
	// TornBytes is the size of the unacknowledged torn tail truncated from
	// the journal (0 when the tail was clean).
	TornBytes int64
	// Quarantined reports that corruption was salvaged under
	// CorruptQuarantine: damaged records are in quarantine.jsonl and the
	// controller must run read-only.
	Quarantined bool
	// Damage lists every record that failed verification.
	Damage []FileDamage
}

// fileScan is one verified journal or snapshot file: the wal scan plus the
// entries of its verified prefix.
type fileScan struct {
	*wal.Scan
	path    string
	entries []Entry
}

// scanFile verifies one journal (sealed=false) or snapshot (sealed=true)
// file image. Beyond the frame checks a record must parse as an Entry and
// carry the next consecutive Seq — a torn write whose fragment still
// checksums, or a record spliced in from elsewhere, shows up as a regression
// or gap.
func scanFile(data []byte, path string, sealed bool) *fileScan {
	s := &fileScan{path: path}
	var prev int64
	first := true
	s.Scan = wal.ScanBytes(data, journalHeader, sealed, func(payload []byte) string {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Sprintf("payload parse error: %v", err)
		}
		switch {
		case first || e.Seq == prev+1:
		case e.Seq <= prev:
			return fmt.Sprintf("out-of-sequence record (seq %d after %d)", e.Seq, prev)
		default:
			return fmt.Sprintf("sequence gap (seq %d after %d)", e.Seq, prev)
		}
		first, prev = false, e.Seq
		s.entries = append(s.entries, e)
		return ""
	})
	return s
}

// scanPath reads and verifies one file; a missing file scans as empty.
func scanPath(fsys vfs.FS, path string, sealed bool) (*fileScan, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("slurm: read journal %s: %w", path, err)
	}
	return scanFile(data, path, sealed), nil
}

// encodeEntries renders each entry as its frame payload.
func encodeEntries(entries []Entry) ([][]byte, error) {
	payloads := make([][]byte, len(entries))
	for i, e := range entries {
		var err error
		if payloads[i], err = json.Marshal(e); err != nil {
			return nil, fmt.Errorf("slurm: encode entry %d: %w", e.Seq, err)
		}
	}
	return payloads, nil
}

// encodeSnapshot renders entries as a complete snapshot file: header, one
// frame per entry, trailing manifest sealing the whole file.
func encodeSnapshot(entries []Entry) ([]byte, error) {
	payloads, err := encodeEntries(entries)
	if err != nil {
		return nil, err
	}
	return wal.Encode(journalHeader, payloads, true), nil
}

// statePair is a state directory's verified snapshot+journal pair folded
// into the committed prefix — the common first step of recovery, compaction,
// and fsck.
type statePair struct {
	snap, tail *fileScan
	// entries is the committed prefix. A crash between compaction's snapshot
	// rename and journal truncation leaves the journal's entries duplicated
	// at the snapshot's tail; the strictly increasing Seq makes the overlap
	// detectable, so it is dropped instead of poisoning replay.
	entries []Entry
	// gap, when non-empty, describes a sequence gap — the log claims history
	// it cannot connect to. Everything from the gap on is unreachable:
	// returned separately, never silently replayed.
	gap         string
	unreachable []Entry
}

func scanState(fsys vfs.FS, dir string) (*statePair, error) {
	snap, err := scanPath(fsys, snapshotFile(dir), true)
	if err != nil {
		return nil, err
	}
	tail, err := scanPath(fsys, journalFile(dir), false)
	if err != nil {
		return nil, err
	}
	return foldScans(snap, tail), nil
}

func foldScans(snap, tail *fileScan) *statePair {
	p := &statePair{snap: snap, tail: tail}
	var last int64
	consume := func(list []Entry, src string) {
		for i, e := range list {
			if p.gap != "" {
				p.unreachable = append(p.unreachable, list[i:]...)
				return
			}
			if e.Seq <= last {
				continue // overlap from a crash mid-compaction
			}
			if e.Seq != last+1 {
				p.gap = fmt.Sprintf("%s: sequence gap (log connects through seq %d, next record is seq %d)", src, last, e.Seq)
				p.unreachable = append(p.unreachable, list[i:]...)
				return
			}
			p.entries = append(p.entries, e)
			last = e.Seq
		}
	}
	consume(snap.entries, "snapshot")
	consume(tail.entries, "journal")
	return p
}

// corrupt reports damage recovery will not silently salvage: any snapshot
// damage (snapshots are written atomically, so even "torn" is corruption),
// mid-log journal damage, or a sequence gap.
func (p *statePair) corrupt() bool {
	return len(p.snap.Damage) > 0 || (len(p.tail.Damage) > 0 && !p.tail.Torn) || p.gap != ""
}

// quarantine lists everything a salvage sets aside, raw bytes included: the
// damaged lines of whichever file is corrupt (withTorn adds a benign torn
// journal tail too — fsck -repair drops it from the file, so it is kept
// here) and the records stranded behind a gap.
func (p *statePair) quarantine(withTorn bool) []FileDamage {
	out := damageList("snapshot.jsonl", p.snap.Damage, true)
	if withTorn || !p.tail.Torn {
		out = append(out, damageList("journal.jsonl", p.tail.Damage, true)...)
	}
	for _, e := range p.unreachable {
		payload, _ := json.Marshal(e) // e was decoded from JSON; it re-encodes
		out = append(out, FileDamage{
			File: "journal.jsonl", Reason: "unreachable after " + p.gap, RawB64: b64(payload),
		})
	}
	return out
}

func damageList(file string, ds []wal.Damage, withRaw bool) []FileDamage {
	out := make([]FileDamage, 0, len(ds))
	for _, d := range ds {
		fd := FileDamage{File: file, Line: d.Line, Offset: d.Offset, Reason: d.Reason}
		if withRaw {
			fd.RawB64 = b64(d.Raw)
		}
		out = append(out, fd)
	}
	return out
}

const fsckHint = "(run `mini-slurm fsck` to inspect, `-repair` to salvage)"

// openJournal opens (creating if needed) the state directory, verifies the
// snapshot+journal pair, and returns the append handle, every committed
// entry, and a recovery report. Damage handling follows the recovery state
// machine documented at the top of this file.
func openJournal(fsys vfs.FS, dir string, every int, pol CorruptPolicy) (*journal, []Entry, *RecoveryInfo, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("slurm: state dir: %w", err)
	}
	// A leftover compaction temp file is a crash before the rename; the
	// snapshot+journal pair is authoritative.
	fsys.Remove(snapshotFile(dir) + ".tmp")
	p, err := scanState(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	tail := p.tail
	info := &RecoveryInfo{Entries: len(p.entries)}

	if p.corrupt() {
		if pol != CorruptQuarantine {
			switch {
			case len(p.snap.Damage) > 0:
				d := p.snap.Damage[0]
				err = fmt.Errorf("slurm: snapshot %s corrupt: line %d (offset %d): %s %s",
					p.snap.path, d.Line, d.Offset, d.Reason, fsckHint)
			case len(tail.Damage) > 0 && !tail.Torn:
				d := tail.Damage[0]
				err = fmt.Errorf("slurm: journal %s corrupt: line %d (offset %d): %s %s",
					tail.path, d.Line, d.Offset, d.Reason, fsckHint)
			default:
				err = fmt.Errorf("slurm: %s: %s %s", dir, p.gap, fsckHint)
			}
			return nil, nil, nil, err
		}
		// A salvaged snapshot prefix ends before the journal starts, so the
		// journal's claim to extend it surfaces as a gap: those records are
		// quarantined as unreachable, never replayed.
		info.Quarantined = true
		info.Damage = p.quarantine(false)
		if err := writeQuarantine(fsys, dir, info.Damage); err != nil {
			return nil, nil, nil, err
		}
	} else if len(tail.Damage) > 0 {
		info.Damage = damageList("journal.jsonl", tail.Damage, false)
	}

	// Torn journal tail: the expected crash-mid-append artifact. Truncate
	// the fragment physically — appending after it would fuse the torn
	// bytes with the next record's line and lose an acknowledged entry on
	// the following recovery.
	if tail.Torn && tail.ValidLen < tail.Size {
		info.TornBytes = tail.Size - tail.ValidLen
		if err := fsys.Truncate(journalFile(dir), tail.ValidLen); err != nil {
			return nil, nil, nil, fmt.Errorf("slurm: truncate torn journal tail: %w", err)
		}
	}

	j := &journal{fs: fsys, dir: dir, every: every, ops: len(tail.entries)}
	if err := j.openLog(tail); err != nil {
		return nil, nil, nil, err
	}
	// Make the freshly created files' directory entries durable too: an
	// fsynced journal line in a file the directory has lost is still lost.
	syncDir(fsys, dir)
	return j, p.entries, info, nil
}

// openLog establishes the append handle on the live journal as scan found
// it: a file that is empty (or was torn before its header committed) starts
// over as a fresh self-describing log; otherwise appends continue after the
// verified prefix. A quarantined journal keeps its damaged bytes on disk —
// the controller runs read-only, so nothing is appended behind them.
func (j *journal) openLog(scan *fileScan) (err error) {
	if scan.ValidLen == 0 && (scan.Size == 0 || scan.Torn) {
		j.log, err = wal.Create(j.fs, journalFile(j.dir), journalHeader)
	} else {
		j.log, err = wal.OpenAppend(j.fs, journalFile(j.dir), scan.ValidLen)
	}
	return err
}

// ensureLog re-establishes the append handle after a failed compaction step
// left it closed, so a transient storage fault heals instead of wedging the
// journal until restart.
func (j *journal) ensureLog() error {
	if j.log != nil {
		return nil
	}
	scan, err := scanPath(j.fs, journalFile(j.dir), false)
	if err != nil {
		return err
	}
	if len(scan.Damage) > 0 {
		return fmt.Errorf("slurm: journal %s damaged after failed compaction (%s); refusing to append", scan.path, scan.Damage[0].Reason)
	}
	return j.openLog(scan)
}

// append durably logs one batch — the entries of one or more mutations,
// whose Seqs the caller has already assigned — as a single write and a
// single fsync, then
// compacts if the journal grew past the snapshot threshold. The batch commits
// or fails as a whole: a failed append is rolled back by the wal, frames
// written before the fault included, so the retry's reissued Seqs never
// collide with a half-persisted batch; failures wrap ErrJournalAppend. The
// error speaks for the batch alone: once it is durable a failed compaction
// cannot un-commit it (a caller told otherwise would reissue its Seqs and
// corrupt the log), so that is counted, logged once, and retried by the next
// append — ops stays over the threshold.
func (j *journal) append(group []Entry) error {
	if j.testAppendErr != nil {
		for _, e := range group {
			if err := j.testAppendErr(e); err != nil {
				return journalErr(ErrJournalAppend, err)
			}
		}
	}
	if err := j.ensureLog(); err != nil {
		return journalErr(ErrJournalAppend, err)
	}
	payloads, err := encodeEntries(group)
	if err != nil {
		return journalErr(ErrJournalAppend, err)
	}
	if err := j.log.Append(true, payloads...); err != nil {
		return journalErr(ErrJournalAppend, err)
	}
	j.ops += len(group)
	if j.every > 0 && j.ops >= j.every {
		if err := j.compact(); err != nil {
			journalSyncErrors.Add(1)
			compactWarnOnce.Do(func() {
				log.Printf("slurm: journal: compacting %s failed (entries stay in the journal, retried on every append; counting in journal_sync_errors): %v", j.dir, err)
			})
		}
	}
	return nil
}

// commit is one mutation's group on its way through the commit pipeline,
// and the ticket its caller waits on: durable closes once stage L has made
// the group locally durable, done once the group has cleared every stage it
// goes through (err nil) or failed one of them (err set). Tickets resolve
// in the order their groups were applied.
type commit struct {
	group []Entry
	// audit is the audit cursors (finSeen, killSeen, rejSeen) as the group
	// found them: where a failed stage L rewinds them to.
	audit   [3]int
	durable chan struct{}
	done    chan struct{}
	err     error
}

func newCommit(group []Entry, audit [3]int) *commit {
	return &commit{group: group, audit: audit, durable: make(chan struct{}), done: make(chan struct{})}
}

func (t *commit) resolve(err error) {
	t.err = err
	close(t.done)
}

func (t *commit) resolved() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// resolveAll resolves every ticket of a batch with the same outcome.
func resolveAll(batch []*commit, err error) {
	for _, t := range batch {
		t.resolve(err)
	}
}

// wait blocks until the ticket resolves and returns its outcome. The
// request's budget bounds the wait for replication, not for the local
// commit: once the budget has run out, wait returns as soon as the group is
// locally durable, with ErrDeadlineExceeded — not an acknowledgement; the
// client stopped waiting, so nobody reads the ack the round trip would buy,
// and stage R replicates the group all the same. A group the node commits
// alone (no HA) is acknowledged at its local commit, as it always was.
func (t *commit) wait(b budget, op string) error {
	if b.active() {
		timer := time.NewTimer(b.remaining(time.Now()))
		defer timer.Stop()
		select {
		case <-t.done:
			return t.err
		case <-timer.C:
		}
		select {
		case <-t.done:
		case <-t.durable:
		}
		if !t.resolved() {
			return fmt.Errorf("%w: %s committed locally, replication deferred to heartbeat", ErrDeadlineExceeded, op)
		}
	}
	<-t.done
	return t.err
}

// commitLocal is stage L of the commit pipeline, run on its own goroutine
// while groups are pending. It takes every pending group as one batch,
// stamps consecutive Seqs, and makes the batch durable as one
// journal append — one write, one fsync — outside c.mu, so the mutations
// behind it apply meanwhile. Only then do c.seq and c.entries move: the
// in-memory log, which the heartbeat and the standby are sent, holds locally
// durable entries only, and the batch goes on to stage R (replicateLocked).
// The breaker is fed once per commit. A failed append fails the batch and
// every group applied behind it (failLocalLocked): each was built on state
// the journal does not hold.
func (c *Controller) commitLocal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending = nil
		var entries []Entry
		for _, t := range batch {
			entries = append(entries, t.group...)
		}
		for i := range entries {
			entries[i].Seq = c.seq + 1 + int64(i)
		}
		var err error
		if jr := c.jr; jr != nil {
			c.mu.Unlock()
			err = jr.append(entries)
			c.mu.Lock()
		}
		if err := c.feedBreaker(err); err != nil {
			c.failLocalLocked(append(batch, c.pending...), err)
			c.pending = nil
			continue
		}
		c.seq += int64(len(entries))
		c.entries = append(c.entries, entries...)
		c.replicateLocked(batch, c.seq)
		for _, t := range batch {
			close(t.durable)
		}
	}
	c.committing = false
	c.cond.Broadcast()
}

// failLocalLocked fails groups that did not become durable and rewinds what
// their apply stage moved past the last durable point: the audit cursors go
// back to where the oldest of them found them, so those completions ride
// with the next group, and their idempotency tokens are withdrawn, so a
// retry enqueues afresh rather than being acknowledged against a job a
// restart forgets. c.seq and c.entries never moved for them. The engine
// keeps their effects, as it keeps those of any mutation whose append
// failed. Callers hold c.mu.
func (c *Controller) failLocalLocked(failed []*commit, err error) {
	c.finSeen, c.killSeen, c.rejSeen = failed[0].audit[0], failed[0].audit[1], failed[0].audit[2]
	for _, t := range failed {
		if tok := t.group[0].Token; tok != "" {
			delete(c.tokens, tok)
		}
	}
	resolveAll(failed, err)
}

// writeSnapshot atomically replaces dir's snapshot with entries: sealed
// image through wal.Replace (temp file, fsync, rename), then a directory
// fsync whose failure is counted in journal_sync_errors.
func writeSnapshot(fsys vfs.FS, dir string, entries []Entry) error {
	data, err := encodeSnapshot(entries)
	if err != nil {
		return err
	}
	if err := wal.Replace(fsys, snapshotFile(dir), data); err != nil {
		return err
	}
	// Without a directory fsync the rename may not survive power loss on
	// some filesystems — the data would be safe in the temp file, but the
	// snapshot name could still point at the old content.
	syncDir(fsys, dir)
	return nil
}

// compact folds the journal into the snapshot: verify and merge both files,
// write the folded entries as a sealed snapshot via tmp+rename, then
// truncate the journal to a fresh header. The old append handle stays live
// until the temp snapshot is durable, so a fault in the fold leaves the
// append path healthy. A crash at any point leaves a recoverable pair of
// files.
func (j *journal) compact() error {
	p, err := scanState(j.fs, j.dir)
	if err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	// Compaction rewrites history; damaged history must never be folded
	// into a "clean" snapshot. The files verified at open, so damage here
	// means the disk rotted underneath the running controller.
	for _, s := range []*fileScan{p.snap, p.tail} {
		if len(s.Damage) > 0 {
			return journalErr(ErrJournalCompact, fmt.Errorf("%s damaged (%s); run fsck", s.path, s.Damage[0].Reason))
		}
	}
	if p.gap != "" {
		return journalErr(ErrJournalCompact, fmt.Errorf("refusing to fold: %s", p.gap))
	}
	return j.rewrite(p.entries)
}

// rewrite atomically replaces the journal's entire content with entries: a
// compaction persists the folded log this way, and a standby that accepted a
// full resync from the primary persists the received log in one step (a
// resync is morally a compaction, and fails as one).
func (j *journal) rewrite(entries []Entry) error {
	err := writeSnapshot(j.fs, j.dir, entries)
	if err == nil {
		err = j.truncateLive()
	}
	return journalErr(ErrJournalCompact, err)
}

// truncateLive replaces the live journal with a fresh file after its
// entries have been folded into the snapshot. On failure the append handle
// is left nil; the next append retries via ensureLog.
func (j *journal) truncateLive() error {
	if err := j.close(); err != nil {
		return err
	}
	log, err := wal.Create(j.fs, journalFile(j.dir), journalHeader)
	if err != nil {
		return err
	}
	syncDir(j.fs, j.dir)
	j.log = log
	j.ops = 0
	return nil
}

// close releases the append handle. Nothing is left to sync: every group
// was fsynced or rolled back.
func (j *journal) close() error {
	if j.log == nil {
		return nil
	}
	log := j.log
	j.log = nil
	return log.Close()
}
