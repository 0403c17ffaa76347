package slurm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// High availability. A controller pair runs one primary and one warm
// standby: the primary streams every journal entry to the standby over the
// wire protocol's `replicate` verb and only acknowledges a mutation once the
// standby has applied and persisted it (semi-synchronous replication). The
// push is stage R of the commit pipeline: it sends only batches stage L
// already made durable, so the standby never runs ahead of the primary's
// disk, and it sends batch k while stage L makes batch k+1 durable.
// Because the simulation is deterministic, applying the same operation log
// yields the same state, so the standby is a pure log follower — no state
// transfer format exists beyond the journal itself.
//
// Split-brain is prevented by epoch fencing plus a lease:
//
//   - Every journal entry carries the epoch (term) it was written under.
//     Promotion bumps the epoch and journals it, so the term survives
//     crashes.
//   - The primary fences itself — rejects mutations with ErrFenced — once
//     Lease/2 elapses without a replication acknowledgement. The standby
//     promotes only after a full Lease without hearing a heartbeat. The
//     heartbeat the standby last heard was sent before the ack the primary
//     last received was processed, so the primary's half-lease deadline
//     expires at least Lease/2 before the standby's, and the old primary has
//     stopped acknowledging work before the new one starts.
//   - A deposed primary that reconnects replicates with a stale epoch; the
//     new primary rejects the append (leaving its journal byte-identical)
//     and reports the current epoch, at which point the deposed node demotes
//     itself to standby and requests a full resync.
//
// A promoted primary initially runs detached (no follower), acknowledging
// writes without replication, exactly like a standalone controller; once the
// deposed peer rejoins and catches up, replication turns strict again.

// Role names reported by the health verb.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)

// Replication pacing defaults.
const (
	// DefaultHALease is the failover lease: a standby promotes after this
	// long without a heartbeat; a primary fences itself after half of it
	// without an ack.
	DefaultHALease = 3 * time.Second
	// replicateBatch bounds entries per replicate request so a full resync
	// stays far under the protocol's MaxLine.
	replicateBatch = 256
)

var (
	// ErrNotPrimary is returned for mutations sent to a standby; clients
	// with an endpoint list fail over to the next endpoint on seeing it.
	ErrNotPrimary = errors.New("slurm: not primary (standby serves reads only)")
	// ErrFenced is returned for mutations on a primary whose replication
	// lease has lapsed: the standby may already have promoted, so
	// acknowledging new work here could split the brain.
	ErrFenced = errors.New("slurm: primary fenced (replication lease lost)")
	// errReplication wraps failures to replicate a locally durable entry.
	errReplication = errors.New("slurm: replication to standby failed")
)

// HAConfig is the slurm.conf side of the pair: where to push replication and
// how the lease is paced. The zero value disables HA entirely, keeping the
// wire protocol and journal format byte-compatible with standalone releases.
type HAConfig struct {
	// Replica is the peer address journal entries are pushed to ("" = off).
	Replica string
	// Lease is the failover lease (0 = DefaultHALease).
	Lease time.Duration
	// Heartbeat spaces replication heartbeats (0 = Lease/4).
	Heartbeat time.Duration
}

// Validate checks the HA knobs for internal consistency. The primary fences
// itself after Lease/2 without an ack, so a heartbeat spaced at or beyond
// that would fence a healthy pair between pushes: it is refused, not
// rewritten.
func (h HAConfig) Validate() error {
	if h.Lease < 0 || h.Heartbeat < 0 {
		return fmt.Errorf("slurm: negative HA durations")
	}
	lease := h.Lease
	if lease == 0 {
		lease = DefaultHALease
	}
	if h.Heartbeat != 0 && h.Heartbeat >= lease/2 {
		return fmt.Errorf("slurm: HAHeartbeatSeconds %s must be shorter than half the lease %s, after which the primary fences itself",
			h.Heartbeat, lease)
	}
	return nil
}

// HAOptions configures one member of the pair at runtime.
type HAOptions struct {
	// Standby starts the node as a follower: it applies replicated entries,
	// rejects client mutations, and promotes itself when the lease expires.
	Standby bool
	// Peer is the other controller's protocol address: the push target while
	// primary, and the push target after promotion while standby.
	Peer string
	// Lease is the failover lease (0 = DefaultHALease).
	Lease time.Duration
	// Heartbeat spaces replication heartbeats (0 = Lease/4).
	Heartbeat time.Duration
	// Timeout bounds one replicate round trip (0 = Lease/4).
	Timeout time.Duration
}

// defaults fills a zero lease, heartbeat and timeout. A round trip bounded
// at or beyond Lease/2 would outlast the fencing window, so the timeout is
// also kept inside it.
func (o *HAOptions) defaults() {
	if o.Lease == 0 {
		o.Lease = DefaultHALease
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = o.Lease / 4
	}
	if o.Timeout <= 0 || o.Timeout >= o.Lease/2 {
		o.Timeout = o.Lease / 4
	}
}

// StartHA turns the controller into one member of an HA pair. Call once,
// after OpenJournaled/NewController and before serving traffic. A primary
// with a configured peer is strict: mutations are acknowledged only after
// the standby confirms them, so a standby that never comes up blocks writes
// (by design — that is what -replica promises). A lease and heartbeat that
// HAConfig.Validate refuses are refused here too.
func (c *Controller) StartHA(o HAOptions) error {
	if err := (HAConfig{Lease: o.Lease, Heartbeat: o.Heartbeat}).Validate(); err != nil {
		return err
	}
	o.defaults()
	c.mu.Lock()
	if c.haOn {
		c.mu.Unlock()
		return fmt.Errorf("slurm: HA already started")
	}
	if o.Peer == "" {
		c.mu.Unlock()
		return fmt.Errorf("slurm: HA needs a peer address")
	}
	c.haOn = true
	c.haOpts = o
	c.haStop = make(chan struct{})
	if c.epoch == 0 {
		c.epoch = 1
	}
	if o.Standby {
		c.standby = true
		if c.quarantined {
			// A follower that recovered by quarantining damage holds only a
			// salvaged prefix; insist on a full resync before trusting it
			// with incremental entries.
			c.needFull = true
		}
		c.lastHeard = time.Now()
		c.haWG.Add(1)
		go c.promotionMonitor()
		c.mu.Unlock()
		return nil
	}
	c.startReplicatorLocked(false)
	c.mu.Unlock()
	return nil
}

// StopHA halts replication and promotion monitoring. Idempotent; called by
// Close.
func (c *Controller) StopHA() {
	c.mu.Lock()
	if !c.haOn || c.haStopped {
		c.mu.Unlock()
		return
	}
	c.haStopped = true
	close(c.haStop)
	c.mu.Unlock()
	c.haWG.Wait()
}

// HAInfo reports whether HA is on and, if so, the role and epoch.
func (c *Controller) HAInfo() (on bool, role string, epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.haOn, c.roleLocked(), c.epoch
}

// RoleEpoch returns the node's role and fencing epoch.
func (c *Controller) RoleEpoch() (string, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roleLocked(), c.epoch
}

func (c *Controller) roleLocked() string {
	if c.standby {
		return RoleStandby
	}
	return RolePrimary
}

// startReplicatorLocked creates and launches the push replicator. Callers
// hold c.mu. detached marks a freshly promoted primary that has no live
// follower yet and may acknowledge writes without replication.
func (c *Controller) startReplicatorLocked(detached bool) {
	r := newReplicator(c, c.haOpts)
	r.detached.Store(detached)
	c.repl = r
	c.haWG.Add(1)
	go r.run()
}

// promotionMonitor watches the lease on a standby and promotes when the
// primary goes quiet. It exits once the node is no longer a standby.
func (c *Controller) promotionMonitor() {
	defer c.haWG.Done()
	interval := c.haOpts.Lease / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.haStop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		if !c.standby {
			c.mu.Unlock()
			return
		}
		if time.Since(c.lastHeard) > c.haOpts.Lease && !c.committing {
			// (A node deposed a moment ago may still be committing what it
			// applied as primary; the journal is stage L's until it lands.)
			if !c.promotableLocked() {
				// Refusing promotion on a bad log: reset the lease clock so
				// the check reruns at lease pace, not every tick, while we
				// wait for the primary (or its successor) to resync us.
				c.needFull = true
				c.lastHeard = time.Now()
				c.mu.Unlock()
				continue
			}
			c.promoteLocked()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// promotableLocked is the fsck gate: a standby about to promote verifies its
// own on-disk log first. A follower whose storage rotted (or that started
// quarantined) must not become primary on a damaged log — the cluster's
// history would silently shrink to its salvaged prefix. It stays standby and
// requests a full resync instead. Callers hold c.mu.
func (c *Controller) promotableLocked() bool {
	if c.quarantined {
		return false
	}
	if c.jr == nil {
		return true // in-memory follower: nothing on disk to verify
	}
	report, err := Fsck(c.jr.fs, c.jr.dir)
	if err != nil {
		return false
	}
	return !report.Corrupt
}

// promoteLocked turns the standby into the primary: bump and journal the
// epoch (the durable fencing token), then start pushing to the deposed peer
// so it can rejoin as a follower. Callers hold c.mu.
func (c *Controller) promoteLocked() {
	c.standby = false
	c.needFull = false
	c.epoch++
	// Journal the new term before acknowledging any write under it: the
	// pipeline commits in order, so every later group lands behind it, and
	// fails with it. A failure here feeds the breaker like any append
	// failure: the node promotes but starts out DEGRADED rather than
	// silently non-durable.
	c.queueGroupLocked(Entry{Op: "epoch", Epoch: c.epoch})
	c.startReplicatorLocked(true)
}

// demoteLocked steps a deposed primary (or an out-of-date standby) down
// under a higher epoch: stop pushing, require a full resync, and watch the
// new primary's lease. Callers hold c.mu.
func (c *Controller) demoteLocked(newEpoch int64) {
	if newEpoch > c.epoch {
		c.epoch = newEpoch
	}
	if c.standby {
		return
	}
	c.standby = true
	c.needFull = true
	c.lastHeard = time.Now()
	if c.repl != nil {
		c.repl.stopLocked() // fails what it had queued; its run loop exits
		c.repl = nil
	}
	if !c.haStopped {
		c.haWG.Add(1)
		go c.promotionMonitor()
	}
}

// HandleReplicate is the standby side of the replicate verb: validate the
// epoch, apply in-order entries, persist them, and acknowledge with the last
// applied — and durable — sequence number. It also serves as the fencing
// point — a deposed primary's stale-epoch appends are rejected here without
// touching the journal.
func (c *Controller) HandleReplicate(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handleReplicateLocked(req)
}

func (c *Controller) handleReplicateLocked(req Request) Response {
	if !c.haOn {
		return Response{Error: "replication not enabled on this node"}
	}
	if req.Epoch < c.epoch {
		return Response{
			Error: fmt.Sprintf("stale epoch %d rejected (current epoch %d)", req.Epoch, c.epoch),
			Role:  c.roleLocked(), Epoch: c.epoch, Seq: c.seq,
		}
	}
	if req.Epoch > c.epoch {
		c.demoteLocked(req.Epoch)
	}
	if !c.standby {
		return Response{
			Error: fmt.Sprintf("conflicting primary at epoch %d", c.epoch),
			Role:  c.roleLocked(), Epoch: c.epoch, Seq: c.seq,
		}
	}
	c.lastHeard = time.Now()
	if c.committing {
		// Deposed a moment ago: stage L still owns the journal for what
		// this node applied as primary. Let it land, then look again.
		c.awaitLocalLocked()
		return c.handleReplicateLocked(req)
	}
	if req.Full {
		if err := c.resetFromLogLocked(req.Entries); err != nil {
			return Response{Error: fmt.Sprintf("full resync: %v", err),
				Role: RoleStandby, Epoch: c.epoch, Seq: c.seq}
		}
		c.needFull = false
		if req.Epoch > c.epoch {
			c.epoch = req.Epoch
		}
		return Response{OK: true, Role: RoleStandby, Epoch: c.epoch, Seq: c.seq}
	}
	if c.needFull {
		// Our log diverged (we were deposed); only a full resync is safe.
		return Response{OK: true, NeedFull: true, Role: RoleStandby, Epoch: c.epoch, Seq: c.seq}
	}
	if err := c.applyReplicatedLocked(req.Entries); err != nil {
		return Response{Error: err.Error(), Role: RoleStandby, Epoch: c.epoch, Seq: c.seq}
	}
	return Response{OK: true, Role: RoleStandby, Epoch: c.epoch, Seq: c.seq}
}

// applyReplicatedLocked applies one replicate request's in-order entries: each
// runs against the engine exactly as replay would (Controller.apply, ID
// divergence checked), and the applied run is then persisted as one append —
// byte-identical to how the primary journaled it, one write and one fsync per
// request — before c.seq moves, so the acknowledgement that reports c.seq
// never runs ahead of this node's disk. Entries at or below c.seq are a
// resend after a lost ack and are skipped; a gap ends the run (the
// acknowledged c.seq tells the primary where to resend from). An entry that
// fails to apply ends it too, after the run before it has been persisted.
func (c *Controller) applyReplicatedLocked(entries []Entry) error {
	for len(entries) > 0 && entries[0].Seq <= c.seq {
		entries = entries[1:]
	}
	n := 0
	var applyErr error
	for n < len(entries) && entries[n].Seq == c.seq+1+int64(n) {
		if err := c.apply(&entries[n]); err != nil {
			applyErr = fmt.Errorf("apply entry %d (%s): %w", entries[n].Seq, entries[n].Op, err)
			break
		}
		n++
	}
	if run := entries[:n]; n > 0 {
		c.skipAudits()
		if c.jr != nil {
			if err := c.feedBreaker(c.jr.append(run)); err != nil {
				// The operations ran against the engine but their entries are
				// not on disk: this follower's journal no longer matches its
				// state. Only a full resync (which rewrites the log wholesale)
				// makes it safe to serve from again.
				c.needFull = true
				return fmt.Errorf("persist entries %d-%d: %w", run[0].Seq, run[n-1].Seq, err)
			}
		}
		c.seq = run[n-1].Seq
		c.entries = append(c.entries, run...)
	}
	return applyErr
}

// resetFromLogLocked rebuilds the follower from scratch against the
// primary's full log: fresh engine, replay, journal rewritten atomically.
// Replay determinism makes this the complete state-transfer mechanism.
func (c *Controller) resetFromLogLocked(entries []Entry) error {
	eng, err := newEngine(c.cfg)
	if err != nil {
		return err
	}
	c.eng, c.lastID = eng, 0
	c.publishClock()
	c.tokens = make(map[string]cluster.JobID)
	c.finSeen, c.killSeen, c.rejSeen = 0, 0, 0
	c.done, c.doneFin, c.doneKill, c.doneRej = nil, 0, 0, 0
	c.seq, c.entries = 0, nil
	if err := c.replay(entries); err != nil {
		return err
	}
	c.entries = append([]Entry(nil), entries...)
	if len(entries) > 0 {
		c.seq = entries[len(entries)-1].Seq
	}
	if c.jr != nil {
		if err := c.feedBreaker(c.jr.rewrite(entries)); err != nil {
			return err
		}
	}
	// The log was just rewritten from the primary's authoritative copy: any
	// quarantined local damage has been replaced wholesale.
	c.quarantined = false
	return nil
}

// replicateLocked hands a batch stage L made durable — its tickets and the
// Seq it ends at — to stage R, or resolves it here when there is no stage R
// to go through: without HA the local commit is the whole promise, and on a
// node deposed (or stopped) since the batch applied nobody will replicate
// it. Callers hold c.mu.
func (c *Controller) replicateLocked(batch []*commit, end int64) {
	r := c.repl
	switch {
	case !c.haOn:
		resolveAll(batch, nil)
	case c.standby || r == nil || r.stopped:
		resolveAll(batch, fmt.Errorf("%w: no longer replicating (deposed or stopped)", errReplication))
	default:
		r.queue = append(r.queue, durableBatch{batch, end})
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// durableBatch is a stage-L batch waiting for stage R: its tickets, and the
// Seq of its last entry.
type durableBatch struct {
	commits []*commit
	end     int64
}

// replicator is stage R of the commit pipeline: it pushes the journal to
// the peer and tracks the lease.
type replicator struct {
	c *Controller
	o HAOptions

	// detached marks a freshly promoted primary with no live follower: it may
	// acknowledge writes solo, and by definition holds its own lease.
	detached atomic.Bool
	// lastAck is when the follower last acknowledged (Unix nanoseconds):
	// checkWritable and Health read the lease from it without waiting on a
	// round trip.
	lastAck atomic.Int64
	// kick wakes the run loop when stage L queues a batch.
	kick chan struct{}

	// Under c.mu: the batches stage L made durable, oldest first, and
	// whether the run loop has stopped taking them.
	queue   []durableBatch
	stopped bool

	// Owned by the run loop.
	cl     *Client
	ackSeq int64
	// needFull records the follower's request for a full resync.
	needFull bool
}

func newReplicator(c *Controller, o HAOptions) *replicator {
	r := &replicator{c: c, o: o, kick: make(chan struct{}, 1)}
	r.lastAck.Store(time.Now().UnixNano())
	return r
}

// leaseLost reports whether the primary must fence itself: more than half
// the lease has passed without a replication acknowledgement. A detached
// primary (no live follower) holds the lease by definition.
func (r *replicator) leaseLost(now time.Time) bool {
	if r.detached.Load() {
		return false
	}
	return now.Sub(time.Unix(0, r.lastAck.Load())) > r.o.Lease/2
}

// stopLocked ends stage R for this replicator: batches still queued fail
// with errReplication, later ones fail as they arrive (replicateLocked), and
// the run loop is woken to exit. Idempotent. Callers hold c.mu.
func (r *replicator) stopLocked() {
	r.stopped = true
	for _, b := range r.queue {
		resolveAll(b.commits, fmt.Errorf("%w: replication stopped", errReplication))
	}
	r.queue = nil
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// run is stage R and the heartbeat in one goroutine, the only sender to the
// peer. Each batch stage L queued is pushed on its own, from a snapshot of
// the epoch and of the log through the batch's last Seq taken under c.mu —
// the push itself holds no lock — and its tickets resolve with the outcome.
// When a heartbeat comes due with nothing queued it pushes whatever the
// follower is missing, or an empty keep-alive, so the standby's lease stays
// fresh and a follower that fell behind catches up. It exits when HA stops
// or the node demotes, failing what is still queued.
func (r *replicator) run() {
	c := r.c
	defer c.haWG.Done()
	defer func() {
		if r.cl != nil {
			r.cl.Close()
			r.cl = nil
		}
		c.mu.Lock()
		r.stopLocked()
		c.mu.Unlock()
	}()
	tick := time.NewTicker(r.o.Heartbeat)
	defer tick.Stop()
	for {
		beat := false
		select {
		case <-c.haStop:
			return
		case <-tick.C:
			beat = true
		case <-r.kick:
		}
		for {
			c.mu.Lock()
			if c.repl != r || c.haStopped {
				c.mu.Unlock()
				return // demoted, replaced or stopped
			}
			epoch, entries := c.epoch, c.entries
			var b durableBatch
			if len(r.queue) > 0 {
				b, r.queue[0], r.queue = r.queue[0], durableBatch{}, r.queue[1:]
				entries = entries[:b.end]
			}
			c.mu.Unlock()
			if b.commits == nil && !beat {
				break
			}
			err := r.push(epoch, entries)
			if b.commits == nil {
				break // the heartbeat: persistent failure surfaces via the lease
			}
			beat = false // a batch's push keeps the lease as well
			if err != nil && !r.detached.Load() {
				err = fmt.Errorf("%w: %v", errReplication, err)
			} else {
				err = nil // no live follower yet: solo acknowledgements allowed
			}
			resolveAll(b.commits, err)
		}
	}
}

// push drives replication of entries — a snapshot of the log under epoch —
// until the follower confirms all of it (or an error): each request carries
// up to replicateBatch of the entries the follower is missing — after a
// batch, that batch — and the follower persists a request's entries with
// one append before it answers, so a batch costs one round trip and one
// fsync on each side. It runs on the run loop alone and holds no lock; it
// takes c.mu only to demote on a higher epoch.
func (r *replicator) push(epoch int64, entries []Entry) error {
	maxRounds := len(entries)/replicateBatch + 4
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("replication not converging after %d rounds", round)
		}
		if r.cl == nil {
			cl, err := Dial(r.o.Peer)
			if err != nil {
				return err
			}
			cl.Timeout = r.o.Timeout
			r.cl = cl
		}
		req := Request{Op: "replicate", Epoch: epoch}
		switch {
		case r.needFull:
			req.Entries, req.Full = entries[:min(len(entries), replicateBatch)], true
		case int(r.ackSeq) < len(entries):
			lo := int(r.ackSeq)
			req.Entries = entries[lo:min(len(entries), lo+replicateBatch)]
		}
		wasFull := req.Full
		resp, err := r.cl.Do(req)
		if err != nil {
			if resp.Epoch > epoch {
				// A higher epoch exists: we were deposed while away.
				r.c.mu.Lock()
				r.c.demoteLocked(resp.Epoch)
				r.c.mu.Unlock()
				return fmt.Errorf("deposed by epoch %d", resp.Epoch)
			}
			r.cl.Close()
			r.cl = nil
			return err
		}
		r.lastAck.Store(time.Now().UnixNano())
		r.needFull = resp.NeedFull
		if r.needFull && wasFull {
			return fmt.Errorf("follower rejected full resync")
		}
		r.ackSeq = resp.Seq
		if int(r.ackSeq) > len(entries) {
			// Follower claims more log than we have: histories diverged.
			r.needFull = true
			continue
		}
		if !r.needFull && int(r.ackSeq) >= len(entries) {
			// Caught up: from here on replication is strict again.
			r.detached.Store(false)
			return nil
		}
	}
}
