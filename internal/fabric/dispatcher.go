package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/lineproto"
	"repro/internal/vfs"
)

// Config shapes one dispatcher campaign. Cells and Consume are required;
// every other field has a production default, which tests shrink to make
// expiry and speculation cheap to provoke.
type Config struct {
	// Cells is the grid size; indices 0..Cells-1 are the campaign.
	Cells int
	// Spec is an opaque campaign description handed to every worker at
	// hello (cmd/sweep puts the JSON grid spec here; workers rebuild any
	// cell from it, because cells are pure functions of their index).
	Spec []byte
	// Consume receives each cell's accepted result in strict index order —
	// exactly once per cell, never out of order. A Consume error aborts the
	// campaign.
	Consume func(i int, result []byte) error

	// LeaseTTL is how long a lease lives without a heartbeat (default 15s);
	// each heartbeat renews it. DisconnectGrace replaces the remaining TTL
	// when the lease holder's connection drops (default LeaseTTL/4): a
	// reconnecting worker's next heartbeat restores the full TTL, a dead
	// worker's lease expires after only the grace.
	LeaseTTL        time.Duration
	DisconnectGrace time.Duration
	// HeartbeatEvery is the cadence advertised to workers (default
	// LeaseTTL/3, so two missed beats still keep a lease alive).
	HeartbeatEvery time.Duration

	// Window bounds out-of-order completion: a fresh cell is granted only
	// while its index is below flushed-prefix + Window, so the rows held for
	// reassembly, every walk of the lease table and the cost of losing a
	// straggler all stay bounded (default 1024).
	Window int

	// Speculation policy: once SpecMinSamples cell runtimes have been
	// observed (default 5), a cell whose oldest lease is older than
	// SpecMultiplier (default 2) × the SpecPercentile (default 0.95)
	// runtime is a straggler, and an idle worker with nothing fresh to
	// lease gets a speculative duplicate of it. At most two concurrent
	// leases per cell.
	SpecPercentile float64
	SpecMultiplier float64
	SpecMinSamples int

	// IdleWaitMS is the poll-again hint sent when nothing is leasable
	// (default 100).
	IdleWaitMS int64

	// Integrity & containment policy (DESIGN §14). PoisonAfter is how many
	// distinct workers a cell must fail on before it is POISONED (default 3);
	// MaxCellRetries is the absolute failure cap regardless of distinctness
	// (default 8); RetryBackoff is the base of the exponential requeue delay
	// after a failure (default 250ms, doubling per failure, capped at
	// LeaseTTL).
	PoisonAfter    int
	MaxCellRetries int
	RetryBackoff   time.Duration
	// QuarantineAfter is the strike score that fences a worker off the
	// campaign (default 3; integrity violations charge the whole threshold at
	// once). QuarantineCooldown, when >0, readmits a quarantined worker after
	// that long (default 0 = quarantine is permanent for the campaign).
	QuarantineAfter    int
	QuarantineCooldown time.Duration
	// VerifyFraction draws a deterministic sample of cells (0..1, default 0 =
	// off) for redundant verification: each sampled cell is executed on two
	// distinct workers and byte-compared before acceptance, catching workers
	// that compute wrong bytes under a correct checksum. VerifySeed selects
	// the sample. Divergence re-executes on a third worker; the odd worker
	// out is quarantined. Meaningful only with ≥2 (for the sample) and ≥3
	// (for divergence resolution) live workers.
	VerifyFraction float64
	VerifySeed     uint64

	// JournalPath, when set, makes the campaign crash-recoverable: every
	// accepted completion is appended to a CRC32C-framed journal, and a
	// dispatcher restarted on the same path resumes — recovered cells are
	// DONE, the committed rows are re-emitted through Consume in strict
	// order, everything else is requeued, and the journaled generation is
	// bumped so pre-crash leases fence. Empty = in-memory only (PR 6
	// behavior).
	JournalPath string
	// FS is the filesystem the journal is written through (default vfs.OS{};
	// storage tests inject vfs.Faulty for torn appends and crash points).
	FS vfs.FS

	// Logf, when set, receives every lease decision (grant, requeue,
	// speculation, dedup, stale, fence, flush milestones) in addition to the
	// in-memory decision log.
	Logf func(format string, args ...any)
}

// leaseRec is one active lease on a cell.
type leaseRec struct {
	worker      string
	conn        int64 // connection the lease was granted or last renewed on
	epoch       int64
	speculative bool
	graced      bool // deadline was shortened by a disconnect
	deadline    time.Time
	started     time.Time
}

// cellRec is everything the dispatcher knows about one cell — the table of
// these is the lease machine's only structure: a PENDING cell is queued by
// being PENDING, a DONE cell above the flush prefix holds its own row, a
// POISONED cell its own error. epoch is the high-water lease epoch and is
// strictly monotone: every grant bumps it, so any message carrying an older
// epoch is recognisably stale.
type cellRec struct {
	state  cellState
	epoch  int64
	leases []leaseRec
	// row is the accepted result between acceptance and its turn in the flush
	// (DONE cells at or above nextFlush, nobody else: FAB-2); err is the error
	// that retired a POISONED cell.
	row []byte
	err string
	// Retry budget: failures counts cell-function errors, failedWorkers the
	// distinct workers they came from, notBefore gates the next grant behind
	// the exponential requeue backoff.
	failures      int
	failedWorkers map[string]bool
	notBefore     time.Time
	// verify holds the redundant-verification candidates while the cell is in
	// the sampled double-execution protocol (nil otherwise).
	verify *verifyState
}

// ErrClosed is returned by Wait when the dispatcher is closed before the
// campaign completes.
var ErrClosed = errors.New("fabric: dispatcher closed")

// ErrDrained is returned by Wait when Drain ended the campaign early: the
// journal is checkpointed and a dispatcher restarted on it resumes where
// this one stopped.
var ErrDrained = errors.New("fabric: campaign drained (journal checkpointed; restart with the same journal to resume)")

// Dispatcher owns a campaign: the lease table and the listener workers
// connect to.
type Dispatcher struct {
	cfg Config
	now func() time.Time // injectable for deterministic lease tests

	mu         sync.Mutex
	cells      []cellRec
	nextFlush  int                   // cells below it are flushed or poisoned; the window starts here
	samples    []float64             // accepted cell runtimes in seconds, kept sorted
	workers    map[string]*workerRec // strike/quarantine records
	specSHAHex string                // campaign identity, bound into completion checksums
	done       bool
	draining   bool
	finalErr   error
	doneCh     chan struct{}
	counters   Counters
	decisions  []string
	jr         *CampaignJournal
	generation int64

	// srv owns the listener and the worker connections.
	srv lineproto.Server
}

// Validate refuses the containment knobs no campaign can run with: a
// VerifyFraction that is NaN or outside [0, 1] and a negative PoisonAfter.
// Zero leaves either to its default. NewDispatcher calls it.
func (cfg Config) Validate() error {
	switch {
	case !(cfg.VerifyFraction >= 0 && cfg.VerifyFraction <= 1):
		return fmt.Errorf("fabric: VerifyFraction must be in [0, 1], got %g", cfg.VerifyFraction)
	case cfg.PoisonAfter < 0:
		return fmt.Errorf("fabric: PoisonAfter must be ≥ 0 (0 = default), got %d", cfg.PoisonAfter)
	}
	return nil
}

// NewDispatcher validates cfg and builds the campaign with every cell
// PENDING.
func NewDispatcher(cfg Config) (*Dispatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("fabric: Cells must be ≥ 1, got %d", cfg.Cells)
	}
	if cfg.Consume == nil {
		return nil, errors.New("fabric: Consume is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.DisconnectGrace <= 0 {
		cfg.DisconnectGrace = cfg.LeaseTTL / 4
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 3
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.SpecPercentile <= 0 || cfg.SpecPercentile > 1 {
		cfg.SpecPercentile = 0.95
	}
	if cfg.SpecMultiplier <= 0 {
		cfg.SpecMultiplier = 2
	}
	if cfg.SpecMinSamples <= 0 {
		cfg.SpecMinSamples = 5
	}
	if cfg.IdleWaitMS <= 0 {
		cfg.IdleWaitMS = 100
	}
	if cfg.PoisonAfter <= 0 {
		cfg.PoisonAfter = 3
	}
	if cfg.MaxCellRetries <= 0 {
		cfg.MaxCellRetries = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	d := &Dispatcher{
		cfg:        cfg,
		now:        time.Now,
		cells:      make([]cellRec, cfg.Cells),
		workers:    make(map[string]*workerRec),
		specSHAHex: specSHA(cfg.Spec),
		doneCh:     make(chan struct{}),
		generation: 1,
	}
	d.srv = lineproto.Server{
		Open: func(id int64) lineproto.Handler {
			return func(raw []byte) (any, bool) { return d.serveLine(raw, id), false }
		},
		Closed:     d.dropConn,
		ErrorReply: errorReply,
	}
	if cfg.JournalPath != "" {
		if err := d.openJournal(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// openJournal opens or resumes the campaign journal and applies the
// recovery: recovered cells become DONE, the committed prefix is re-emitted
// through Consume in strict order, and the generation adopts the journaled
// bump. Recovered rows above the flush prefix stay on their cells, so no
// committed work is recomputed. Runs before Listen — a worker can never
// observe a half-recovered campaign.
func (d *Dispatcher) openJournal() error {
	jr, rec, err := OpenCampaignJournal(d.cfg.FS, d.cfg.JournalPath, d.cfg.Spec, d.cfg.Cells)
	if err != nil {
		return err
	}
	d.jr = jr
	d.generation = rec.Gen
	if !rec.Resumed {
		d.logLocked("campaign journal=%s gen=%d", d.cfg.JournalPath, d.generation)
		return nil
	}
	d.count(cRestarts)
	for i, row := range rec.Rows {
		d.cells[i].state = stateDone
		d.cells[i].row = row
		d.count(cResumed)
	}
	// Containment state survives the restart: POISONED cells stay terminal
	// (the flush skips them below exactly as the pre-crash dispatcher did),
	// and quarantined workers stay fenced — a hostile worker cannot launder
	// its record by crashing the dispatcher. The cooldown clock, when
	// configured, restarts at resume time.
	for cell, errStr := range rec.Poisoned {
		d.cells[cell].state = statePoisoned
		d.cells[cell].err = errStr
		d.logLocked("resume-poison cell=%d err=%q", cell, errStr)
	}
	for id, reason := range rec.Quarantined {
		d.workers[id] = &workerRec{
			strikes:       d.cfg.QuarantineAfter,
			quarantined:   true,
			quarantinedAt: d.now(),
			reason:        reason,
		}
		d.logLocked("resume-quarantine worker=%s reason=%s", id, reason)
	}
	d.logLocked("resume journal=%s gen=%d recovered=%d poisoned=%d quarantined=%d salvaged_bytes=%d",
		d.cfg.JournalPath, d.generation, len(rec.Rows), len(rec.Poisoned), len(rec.Quarantined), rec.SalvagedBytes)
	d.flushLocked()
	return nil
}

// Listen starts accepting workers on addr ("host:port"; ":0" picks a free
// port) and returns the bound address.
func (d *Dispatcher) Listen(addr string) (string, error) {
	bound, err := d.srv.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("fabric: listen: %w", err)
	}
	return bound, nil
}

// Wait blocks until the campaign ends, the dispatcher is closed, or ctx is
// done. A campaign that flushed every cell returns nil; one that completed
// around poisoned cells delivered every healthy row in strict order and
// returns a *PoisonedError naming the rest; a drained one returns ErrDrained,
// a closed one ErrClosed, and a Consume error comes back as it was.
func (d *Dispatcher) Wait(ctx context.Context) error {
	select {
	case <-d.doneCh:
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.finalErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the listener and severs every worker connection. Safe to call
// more than once.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if !d.done {
		d.done = true
		d.finalErr = ErrClosed
		close(d.doneCh)
	}
	d.mu.Unlock()
	d.srv.Shutdown(0)
	d.mu.Lock()
	if d.jr != nil {
		d.jr.Close()
		d.jr = nil
	}
	d.mu.Unlock()
}

// Drain checkpoints the journal and stops granting: in-flight leases may
// still complete (and are journaled), but nothing new is handed out; once no
// live lease remains the campaign ends with ErrDrained. This is what the
// first SIGINT of sweep's dispatch signal ladder maps to — the second kills
// via Close.
func (d *Dispatcher) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining || d.done {
		return
	}
	d.draining = true
	d.journalLocked(nil)
	d.logLocked("drain gen=%d flushed=%d", d.generation, d.nextFlush)
	d.maybeFinishDrainLocked()
}

// maybeFinishDrainLocked ends a draining campaign once no live lease
// remains: everything granted has completed, failed, or expired, so there is
// nothing left to wait for.
func (d *Dispatcher) maybeFinishDrainLocked() {
	if !d.draining || d.done {
		return
	}
	for idx := d.nextFlush; idx < d.windowEndLocked(); idx++ {
		if d.cells[idx].state == stateLeased {
			return
		}
	}
	d.finishLocked(ErrDrained)
}

// windowEndLocked is one past the highest index that can be leased or hold an
// unflushed row. A lease is only ever granted below it, and nextFlush cannot
// pass a cell that is not terminal, so every LEASED cell sits in
// [nextFlush, windowEndLocked()) (FAB-1) and no walk of the lease table needs
// to look anywhere else.
func (d *Dispatcher) windowEndLocked() int {
	return min(d.nextFlush+d.cfg.Window, len(d.cells))
}

// Health is the dispatcher's health snapshot, served on the listener as the
// health verb and exposed here for in-process callers.
func (d *Dispatcher) Health() DispatchHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := DispatchHealth{
		OK:              true,
		Health:          "ok",
		Generation:      d.generation,
		CellsTotal:      len(d.cells),
		Flushed:         int64(d.nextFlush),
		Connections:     d.srv.Conns(),
		Journal:         d.cfg.JournalPath != "",
		ResumedCells:    d.counters.Resumed,
		StaleGen:        d.counters.StaleGen,
		Failed:          d.counters.Failed,
		ChecksumRejects: d.counters.ChecksumRejects,
	}
	for i := range d.cells {
		switch d.cells[i].state {
		case stateDone:
			h.CellsDone++
		case stateLeased:
			h.CellsLeased++
		case statePoisoned:
			h.PoisonedCells = append(h.PoisonedCells, i)
		}
	}
	h.Poisoned = int64(len(h.PoisonedCells))
	h.Quarantined = d.quarantinedWorkersLocked()
	h.QuarantinedWorkers = int64(len(h.Quarantined))
	if d.draining {
		h.Health = "draining"
	}
	if d.done {
		h.Health = "done"
	}
	return h
}

// Counters returns a consistent snapshot of the decision tallies.
func (d *Dispatcher) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// maxDecisions bounds the in-memory decision log; beyond it the oldest half
// is dropped (the expvar counters stay exact).
const maxDecisions = 1 << 16

// logLocked records one decision. Callers hold d.mu.
func (d *Dispatcher) logLocked(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if len(d.decisions) >= maxDecisions {
		d.decisions = append(d.decisions[:0], d.decisions[maxDecisions/2:]...)
	}
	d.decisions = append(d.decisions, line)
	if d.cfg.Logf != nil {
		d.cfg.Logf("%s", line)
	}
}

// ---- network plumbing ----

// serveLine answers one line from the worker connection connID, which is what
// leases granted on it are bound to.
func (d *Dispatcher) serveLine(raw []byte, connID int64) any {
	req, err := decodeRequest(raw)
	switch {
	case err != nil:
		return response{Error: fmt.Sprintf("bad request: %v", err)}
	case req.Op == "health":
		// The health verb answers with the richer DispatchHealth shape,
		// mirroring mini-slurm health and simd -health.
		return d.Health()
	}
	return d.handle(req, connID)
}

// errorReply shapes lineproto's framing errors as fabric responses.
func errorReply(msg string, _ any) any { return response{Error: msg} }

func (d *Dispatcher) handle(req request, connID int64) response {
	switch req.Op {
	case "hello":
		return d.hello()
	case "lease":
		return d.grant(req.Worker, connID)
	case "heartbeat":
		return d.heartbeat(req.Worker, req.Cell, req.Epoch, req.Gen, connID)
	case "complete":
		return d.complete(req.Worker, req.Cell, req.Epoch, req.Gen, req.Result, req.Sum, req.Err)
	case "goodbye":
		return d.goodbye(req.Worker, connID)
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (d *Dispatcher) hello() response {
	d.mu.Lock()
	defer d.mu.Unlock()
	return response{
		OK:          true,
		Cells:       len(d.cells),
		Spec:        json.RawMessage(d.cfg.Spec),
		Gen:         d.generation,
		LeaseMS:     durMS(d.cfg.LeaseTTL),
		HeartbeatMS: durMS(d.cfg.HeartbeatEvery),
		Done:        d.done,
	}
}

// ---- lease state machine ----
// Every mutation runs under d.mu; the injectable clock plus these methods
// being callable without a listener is what makes the seeded property test
// (lease_prop_test.go) a pure function of its RNG. DESIGN §12 has the
// transition table.

// grant hands out the next lease to worker: the lowest PENDING cell inside
// the window, else a speculative duplicate of the lowest eligible straggler,
// else a poll-again hint. Expired leases are swept first, so idle workers
// polling for work is also what drives reclamation forward.
func (d *Dispatcher) grant(worker string, connID int64) response {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweepExpiredLocked()
	if d.done {
		return response{OK: true, Done: true}
	}
	if d.quarantinedLocked(worker) {
		// Fenced off the campaign: no leases until the cooldown (if any)
		// releases. The worker idle-polls rather than exiting — readmission
		// is possible.
		return response{OK: true, Quarantined: true, WaitMS: d.cfg.IdleWaitMS}
	}
	if d.draining {
		// Drain: nothing new is granted; in-flight completions still land.
		return response{OK: true, WaitMS: d.cfg.IdleWaitMS}
	}
	// Fresh cell: the lowest PENDING index in the window (when none is left
	// there, completing the prefix is the only way forward). Cells inside
	// their failure backoff, and verify-sampled cells this worker already
	// executed, are passed over for now.
	now := d.now()
	for idx := d.nextFlush; idx < d.windowEndLocked(); idx++ {
		c := &d.cells[idx]
		if c.state == statePending && !c.notBefore.After(now) && !c.verifyContributor(worker) {
			return d.grantCellLocked(idx, worker, connID, false)
		}
	}
	// Speculation: duplicate the lowest straggler not already duplicated and
	// not held by this same worker.
	if idx, ok := d.speculationTargetLocked(worker); ok {
		return d.grantCellLocked(idx, worker, connID, true)
	}
	return response{OK: true, WaitMS: d.cfg.IdleWaitMS}
}

// grantCellLocked issues a lease on idx, bumping the cell's monotone epoch.
func (d *Dispatcher) grantCellLocked(idx int, worker string, connID int64, speculative bool) response {
	now := d.now()
	c := &d.cells[idx]
	c.state = stateLeased
	c.epoch++
	c.leases = append(c.leases, leaseRec{
		worker:      worker,
		conn:        connID,
		epoch:       c.epoch,
		speculative: speculative,
		deadline:    now.Add(d.cfg.LeaseTTL),
		started:     now,
	})
	d.count(cGranted)
	kind := "grant"
	if speculative {
		kind = "speculate"
		d.count(cSpeculativeGrants)
	}
	d.logLocked("%s cell=%d epoch=%d gen=%d worker=%s", kind, idx, c.epoch, d.generation, worker)
	return response{OK: true, Granted: true, Cell: idx, Epoch: c.epoch, Gen: d.generation, Speculative: speculative}
}

// speculationTargetLocked picks the lowest single-leased cell whose oldest
// lease has outlived the straggler threshold: SpecMultiplier × the
// SpecPercentile of the runtimes observed so far.
func (d *Dispatcher) speculationTargetLocked(worker string) (int, bool) {
	if len(d.samples) < d.cfg.SpecMinSamples {
		return 0, false
	}
	threshold := d.cfg.SpecMultiplier * d.samples[int(d.cfg.SpecPercentile*float64(len(d.samples)-1))]
	now := d.now()
	for idx := d.nextFlush; idx < d.windowEndLocked(); idx++ {
		c := &d.cells[idx]
		if c.state != stateLeased || len(c.leases) != 1 {
			continue
		}
		l := c.leases[0]
		if l.worker == worker || c.verifyContributor(worker) {
			continue
		}
		if now.Sub(l.started).Seconds() > threshold {
			return idx, true
		}
	}
	return 0, false
}

// observeLocked files the runtime of a lease whose result was just taken,
// keeping samples sorted so the speculation percentile is an index rather
// than a sort per idle poll.
func (d *Dispatcher) observeLocked(l leaseRec) {
	secs := d.now().Sub(l.started).Seconds()
	d.samples = slices.Insert(d.samples, sort.SearchFloat64s(d.samples, secs), secs)
}

// leaseExit is why a lease ended without its completion being accepted.
type leaseExit uint8

const (
	exitExpiry     leaseExit = iota // the deadline passed with no heartbeat
	exitDisconnect                  // a deadline shortened by a connection loss or goodbye passed
	exitFence                       // the holder was quarantined
	exitFailure                     // the cell function returned an error
	exitVerify                      // the result is held as a verification candidate
)

// leaseExits is the per-cause accounting, stated once. dropLeasesLocked reads
// the first three columns for each lease it drops, requeueLocked the last two
// when that leaves the cell bare. exitFailure and exitVerify end one known
// lease rather than a walk's worth, so their callers log the exit themselves
// (fail / verify-hold / verify-diverge) and only the requeue is tallied here.
var leaseExits = [...]struct {
	dropped  counter // tallied per lease dropped
	line     string  // decision line per lease dropped: cell, epoch, worker
	strike   string  // cause of the one strike charged to the holder ("" = none)
	requeued counter // tallied per cell returned to PENDING
	logged   bool    // the requeue gets its own "requeue cell=… next_epoch=…" line
}{
	exitExpiry:     {cRequeueExpiry, "reclaim cell=%d epoch=%d worker=%s cause=expiry", "lease-expiry", cRequeues, true},
	exitDisconnect: {cRequeueDisconnect, "reclaim cell=%d epoch=%d worker=%s cause=disconnect", "lease-disconnect", cRequeues, true},
	exitFence:      {line: "quarantine-fence cell=%d epoch=%d worker=%s", requeued: cRequeues},
	exitFailure:    {requeued: cCellRetries},
	exitVerify:     {},
}

// dropLeasesLocked is the one walk over live leases (the window holds them
// all: FAB-1). visit sees every lease, may edit it, and reports whether it
// ends; an ended lease is dropped under why's accounting — an expired lease
// that a disconnect had shortened is a disconnect — and a cell left with no
// lease requeues.
func (d *Dispatcher) dropLeasesLocked(why leaseExit, visit func(idx int, l *leaseRec) (ended bool)) {
	type strike struct{ worker, cause string }
	var strikes []strike
	for idx := d.nextFlush; idx < d.windowEndLocked(); idx++ {
		c := &d.cells[idx]
		if c.state != stateLeased {
			continue
		}
		kept := c.leases[:0]
		for i := range c.leases {
			l := &c.leases[i]
			if !visit(idx, l) {
				kept = append(kept, *l)
				continue
			}
			exit := &leaseExits[why]
			if why == exitExpiry && l.graced {
				exit = &leaseExits[exitDisconnect]
			}
			d.count(exit.dropped)
			d.logLocked(exit.line, idx, l.epoch, l.worker)
			if exit.strike != "" {
				strikes = append(strikes, strike{l.worker, exit.strike})
			}
		}
		c.leases = kept
		d.requeueLocked(idx, why)
	}
	// Losing a lease to expiry or disconnect is one strike: an isolated hiccup
	// decays on the next accepted completion, a crash-looping or hung worker
	// accumulates its way into quarantine. Charged after the walk, because a
	// strike can tip a worker into quarantine, which runs this walk itself —
	// re-entering it mid-cell would corrupt the slice being filtered.
	for _, s := range strikes {
		d.strikeLocked(s.worker, s.cause, 1)
	}
}

// requeueLocked is the one way back to PENDING: a LEASED cell whose last
// lease just ended is grantable again under a higher epoch. It reports
// whether idx was requeued — a cell that still has a lease, or that something
// in between already requeued or retired, is left alone.
func (d *Dispatcher) requeueLocked(idx int, why leaseExit) bool {
	c := &d.cells[idx]
	if c.state != stateLeased || len(c.leases) > 0 {
		return false
	}
	c.state = statePending
	exit := &leaseExits[why]
	d.count(exit.requeued)
	if exit.logged {
		d.logLocked("requeue cell=%d next_epoch=%d", idx, c.epoch+1)
	}
	return true
}

// sweepExpiredLocked reclaims every lease past its deadline. Driven from
// grant (idle workers polling) — there is no background timer to race with
// tests.
func (d *Dispatcher) sweepExpiredLocked() {
	now := d.now()
	d.dropLeasesLocked(exitExpiry, func(_ int, l *leaseRec) bool { return !l.deadline.After(now) })
	d.maybeFinishDrainLocked()
}

// heartbeat renews a live lease (and rebinds it to the worker's current
// connection, so a reconnect clears the disconnect grace). A heartbeat for a
// lease that no longer exists on a still-undone cell answers "fenced": the
// worker must abandon the cell. A heartbeat for a finished cell is harmless —
// the worker may run to completion and its result will dedupe, which is
// exactly the at-least-once → exactly-once story.
func (d *Dispatcher) heartbeat(worker string, cell int, epoch, gen, connID int64) response {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cell < 0 || cell >= len(d.cells) {
		return response{Error: fmt.Sprintf("cell %d out of range", cell)}
	}
	if gen != d.generation {
		// A lease from a pre-restart incarnation: the restarted dispatcher
		// requeued the cell, so the holder must abandon it and re-lease under
		// the current generation (its reconnect already re-helloed).
		d.count(cFenced)
		d.count(cStaleGen)
		d.logLocked("fence-gen cell=%d epoch=%d worker=%s gen=%d current_gen=%d",
			cell, epoch, worker, gen, d.generation)
		return response{OK: true, Fenced: true}
	}
	c := &d.cells[cell]
	if c.state == stateDone || c.state == statePoisoned {
		return response{OK: true, Done: d.done}
	}
	if li := c.leaseIndex(worker, epoch); li >= 0 {
		l := &c.leases[li]
		l.deadline = d.now().Add(d.cfg.LeaseTTL)
		l.conn = connID
		l.graced = false
		return response{OK: true}
	}
	d.count(cFenced)
	d.logLocked("fence cell=%d epoch=%d worker=%s", cell, epoch, worker)
	return response{OK: true, Fenced: true}
}

// complete records one cell result. The integrity gate comes first: a
// completion whose checksum does not cover its payload is rejected before
// dedup, before lease matching, before reassembly — a corrupted row must
// never win first-result-wins. Then first-result-wins: the first
// checksum-valid completion holding a live lease is accepted and flushed;
// completions for done cells dedupe; completions whose lease was reclaimed
// or superseded are stale and discarded.
func (d *Dispatcher) complete(worker string, cell int, epoch, gen int64, result []byte, sum uint32, errStr string) response {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cell < 0 || cell >= len(d.cells) {
		return response{Error: fmt.Sprintf("cell %d out of range", cell)}
	}
	if gen != d.generation {
		// Fenced stale-generation completion: the lease predates a dispatcher
		// restart. The restarted dispatcher requeued (or recovered) the cell;
		// accepting a pre-crash result would race the current lease holder,
		// so it is rejected and counted — the worker re-leases under the new
		// generation and the campaign stays exactly-once.
		d.count(cStaleGen)
		d.logLocked("stale-gen cell=%d epoch=%d worker=%s gen=%d current_gen=%d",
			cell, epoch, worker, gen, d.generation)
		return response{OK: true, Stale: true, Done: d.done}
	}
	if errStr == "" {
		if want := completionSum(d.specSHAHex, cell, result); want != sum {
			d.count(cChecksumRejects)
			d.logLocked("checksum-reject cell=%d epoch=%d worker=%s sum=%08x want=%08x",
				cell, epoch, worker, sum, want)
			d.strikeLocked(worker, "checksum-reject", d.cfg.QuarantineAfter)
			return response{OK: true, Rejected: true, Done: d.done}
		}
	}
	c := &d.cells[cell]
	li := c.leaseIndex(worker, epoch)
	switch {
	case c.state == stateDone || c.state == statePoisoned:
		d.count(cDeduped)
		d.logLocked("dedupe cell=%d epoch=%d worker=%s", cell, epoch, worker)
		return response{OK: true, Duplicate: true, Done: d.done}
	case li < 0:
		d.count(cStale)
		d.logLocked("stale cell=%d epoch=%d worker=%s current_epoch=%d", cell, epoch, worker, c.epoch)
		return response{OK: true, Stale: true}
	case errStr != "":
		d.failLeaseLocked(cell, li, worker, errStr)
	case d.verifySampled(cell):
		d.verifyAcceptLocked(cell, li, worker, result)
	default:
		l := c.leases[li]
		d.observeLocked(l)
		d.rewardLocked(worker)
		if l.speculative {
			d.count(cSpeculativeWins)
			d.logLocked("speculative-win cell=%d epoch=%d worker=%s", cell, epoch, worker)
		}
		d.logLocked("complete cell=%d epoch=%d worker=%s", cell, epoch, worker)
		d.acceptCellLocked(cell, result)
	}
	return response{OK: true, Done: d.done}
}

// leaseIndex finds worker's lease under epoch, -1 when there is none (never
// granted, reclaimed, superseded, or the cell is terminal).
func (c *cellRec) leaseIndex(worker string, epoch int64) int {
	return slices.IndexFunc(c.leases, func(l leaseRec) bool { return l.epoch == epoch && l.worker == worker })
}

// retireLocked is the terminal step DONE and POISONED share: the cell leaves
// the lease machine for good — no lease, no verification candidates — and the
// verdict is journaled and tallied. The caller flushes.
func (d *Dispatcher) retireLocked(cell int, state cellState, tally counter, rec *journalRecord) *cellRec {
	c := &d.cells[cell]
	c.state, c.leases, c.verify = state, nil, nil
	d.journalLocked(rec)
	d.count(tally)
	return c
}

// acceptCellLocked commits one verified row: terminal DONE, journaled, held
// on the cell until the flush prefix reaches it.
func (d *Dispatcher) acceptCellLocked(cell int, result []byte) {
	c := d.retireLocked(cell, stateDone, cCompleted, &journalRecord{Kind: "cell", Cell: cell, Row: result})
	c.row = result
	d.flushLocked()
}

// goodbye is a clean disconnect (drain): the worker holds no lease it
// intends to finish, so anything still bound to its connection is requeued
// immediately rather than after the grace.
func (d *Dispatcher) goodbye(worker string, connID int64) response {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseConnLocked(connID, 0)
	d.logLocked("goodbye worker=%s", worker)
	return response{OK: true, Done: d.done}
}

// dropConn handles an abrupt connection loss: shorten every lease bound to
// the connection to the disconnect grace. A live worker that reconnects
// restores its deadlines with the next heartbeat; a dead one expires fast.
func (d *Dispatcher) dropConn(connID int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseConnLocked(connID, d.cfg.DisconnectGrace)
}

// releaseConnLocked shortens (grace > 0) or expires (grace == 0) every lease
// bound to connID, then sweeps: what it expired requeues at once.
func (d *Dispatcher) releaseConnLocked(connID int64, grace time.Duration) {
	deadline := d.now().Add(grace)
	d.dropLeasesLocked(exitDisconnect, func(idx int, l *leaseRec) bool {
		if l.conn == connID && !l.graced {
			if l.deadline.After(deadline) {
				l.deadline = deadline
			}
			l.graced = true
			d.logLocked("disconnect cell=%d epoch=%d worker=%s grace=%s", idx, l.epoch, l.worker, grace)
		}
		return false
	})
	d.sweepExpiredLocked()
}

// flushLocked delivers the completed prefix in strict index order, then ends
// the campaign if the prefix covers the grid, or a drain if nothing is leased
// any more. POISONED cells are skipped — the prefix advances past them with
// no Consume call, because the campaign completes around a poisoned cell and
// the final error names it. Once the campaign is over — a Consume error
// included — nothing more is delivered.
func (d *Dispatcher) flushLocked() {
	for ; !d.done && d.nextFlush < len(d.cells); d.nextFlush++ {
		c := &d.cells[d.nextFlush]
		if c.state == statePoisoned {
			continue
		}
		if c.state != stateDone {
			d.maybeFinishDrainLocked()
			return
		}
		if err := d.cfg.Consume(d.nextFlush, c.row); err != nil {
			d.logLocked("consume-error cell=%d err=%v", d.nextFlush, err)
			d.finishLocked(err)
			return
		}
		c.row = nil
		d.count(cFlushed)
	}
	d.finishLocked(nil)
}

func (d *Dispatcher) finishLocked(err error) {
	if d.done {
		return
	}
	if err == nil {
		// A campaign that completed around poisoned cells delivered every
		// healthy row but is still incomplete: surface that as a typed error
		// the CLI can turn into a sidecar and a nonzero exit. Drains and
		// consume failures keep their own errors.
		if pc := d.poisonedCellsLocked(); len(pc) > 0 {
			err = &PoisonedError{Cells: pc}
		}
	}
	d.done = true
	d.finalErr = err
	// Best-effort final checkpoint: a finished (or drained) campaign's
	// journal should survive power loss without relying on the OS cache.
	d.journalLocked(nil)
	d.logLocked("campaign-done flushed=%d gen=%d err=%v", d.nextFlush, d.generation, err)
	close(d.doneCh)
}
