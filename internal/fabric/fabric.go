// Package fabric is the distributed sweep fabric: a queue-backed dispatcher
// that hands grid cells to simd worker daemons over the repo's JSON-line
// protocol, engineered for failure first. The fan-out is the easy part — the
// point of this package is surviving worker crashes, hangs, partitions, and
// duplicate completions without perturbing a single output byte.
//
// The dispatcher tracks each cell through a lease state machine
// (PENDING → LEASED(worker, epoch, deadline) → DONE):
//
//   - Leases carry a per-cell monotone epoch; every grant — fresh, requeue,
//     or speculative duplicate — bumps it, so a stale completion or heartbeat
//     is recognisable forever.
//   - A lease whose deadline passes without a heartbeat is reclaimed and its
//     cell requeued; a worker disconnect shortens its leases' deadlines to a
//     small grace (a reconnecting worker's next heartbeat restores them, a
//     dead worker's leases expire fast).
//   - Stragglers past a configurable percentile of observed cell runtimes
//     get a speculative duplicate lease; completions dedupe first-result-wins,
//     so at-least-once execution still yields exactly-once output.
//   - Results flow through a bounded out-of-order window that flushes the
//     completed prefix in strict index order — a dispatcher run is
//     byte-identical to a sequential run of the same pure cells.
//
// Workers heartbeat with progress, back off with jitter on reconnect
// (internal/retry, shared with the slurm client), and self-fence on lease loss:
// a heartbeat answered "fenced" makes the worker abandon the cell without
// completing it. Every requeue, speculation, and dedup decision is logged
// and counted in expvars (the "fabric" map).
package fabric

import (
	"encoding/json"
	"expvar"
	"sync"
	"time"

	"repro/internal/lineproto"
)

// The wire protocol is JSON lines over TCP, same idiom as internal/slurm:
// one request per line from the worker, one response per line back.

// request is one worker→dispatcher message.
type request struct {
	// Op selects the operation: hello, lease, heartbeat, complete, goodbye,
	// health.
	Op string `json:"op"`
	// Worker identifies the daemon (stable across reconnects).
	Worker string `json:"worker,omitempty"`
	// Cell and Epoch name the lease a heartbeat or completion refers to;
	// Gen is the dispatcher generation the lease was granted under. A
	// restarted dispatcher bumps its journaled generation, so a message
	// carrying an older one is from a pre-crash lease and is fenced.
	Cell  int   `json:"cell"`
	Epoch int64 `json:"epoch,omitempty"`
	Gen   int64 `json:"gen,omitempty"`
	// Progress is the worker's in-cell progress estimate (0..1), carried on
	// heartbeats for observability.
	Progress float64 `json:"progress,omitempty"`
	// Result is the completed cell's opaque payload (base64 on the wire).
	Result []byte `json:"result,omitempty"`
	// Sum is the end-to-end completion checksum: CRC32C over (campaign spec
	// SHA-256, cell index, result bytes), computed by the worker the moment
	// the cell function returns. The dispatcher recomputes it before dedup
	// and reassembly — a payload corrupted anywhere between computation and
	// acceptance (worker memory, serialization, transport) is rejected
	// instead of winning first-result-wins.
	Sum uint32 `json:"sum,omitempty"`
	// Err reports a cell that failed deterministically (the cell function
	// returned an error — not a transport problem, which is never reported).
	Err string `json:"err,omitempty"`
}

// response is one dispatcher→worker message.
type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// hello payload: the campaign shape and the cadence the worker should
	// heartbeat at.
	Cells       int             `json:"cells,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	LeaseMS     int64           `json:"lease_ms,omitempty"`
	HeartbeatMS int64           `json:"heartbeat_ms,omitempty"`
	// Gen is the dispatcher generation, carried on hello and every grant;
	// workers echo it on heartbeat/complete so a restarted dispatcher can
	// fence pre-crash leases.
	Gen int64 `json:"gen,omitempty"`
	// lease payload. Granted=false with WaitMS set means "nothing leasable
	// right now, poll again"; Done means the campaign is over and the worker
	// may exit.
	Granted     bool  `json:"granted,omitempty"`
	Cell        int   `json:"cell"`
	Epoch       int64 `json:"epoch,omitempty"`
	Speculative bool  `json:"speculative,omitempty"`
	WaitMS      int64 `json:"wait_ms,omitempty"`
	Done        bool  `json:"done,omitempty"`
	// heartbeat/complete verdicts. Fenced tells the worker its lease is gone:
	// stop working on the cell and take a new lease. Duplicate and Stale mark
	// completions that were discarded (cell already done / lease superseded).
	Fenced    bool `json:"fenced,omitempty"`
	Duplicate bool `json:"duplicate,omitempty"`
	Stale     bool `json:"stale,omitempty"`
	// Rejected marks a completion thrown away because its checksum did not
	// match its payload — an integrity violation, counted and struck against
	// the sender.
	Rejected bool `json:"rejected,omitempty"`
	// Quarantined on a lease reply tells the worker it is fenced off the
	// whole campaign: no leases will be granted until the cooldown (if any)
	// releases it. The worker should idle-poll, not exit — a cooldown release
	// or operator action may readmit it.
	Quarantined bool `json:"quarantined,omitempty"`
}

// maxLine bounds one protocol line (a completed cell's payload rides in it).
const maxLine = lineproto.MaxLine

// cellState is one cell's position in the lease state machine.
type cellState uint8

const (
	// statePending: queued, no active lease.
	statePending cellState = iota
	// stateLeased: at least one active lease (two, once a speculative
	// duplicate is launched).
	stateLeased
	// stateDone: a completion was accepted; terminal. Further completions
	// dedupe.
	stateDone
	// statePoisoned: the cell function failed on enough distinct workers (or
	// exhausted its retry budget) that the cell itself is the problem;
	// terminal. The campaign completes around it — the cell is journaled like
	// a DONE cell, skipped by the flush, and reported in the PoisonedError
	// the campaign ends with.
	statePoisoned
)

func (s cellState) String() string {
	switch s {
	case statePending:
		return "PENDING"
	case stateLeased:
		return "LEASED"
	case stateDone:
		return "DONE"
	case statePoisoned:
		return "POISONED"
	}
	return "?"
}

// Counters tallies every fault-handling decision the dispatcher makes. All
// fields are cumulative; read a consistent copy via Dispatcher.Counters.
type Counters struct {
	// Granted counts every lease grant; SpeculativeGrants the subset that
	// duplicated a straggler's cell.
	Granted           int64 `json:"granted"`
	SpeculativeGrants int64 `json:"speculative_grants"`
	// Requeues counts cells returned to PENDING, split by cause: a lease
	// deadline passing (expiry) vs. a disconnect-shortened deadline passing
	// (disconnect) vs. a clean goodbye with the lease still held.
	Requeues          int64 `json:"requeues"`
	RequeueExpiry     int64 `json:"requeue_expiry"`
	RequeueDisconnect int64 `json:"requeue_disconnect"`
	// Completed counts accepted (first) completions; SpeculativeWins the
	// subset won by a speculative duplicate rather than the original lease.
	Completed       int64 `json:"completed"`
	SpeculativeWins int64 `json:"speculative_wins"`
	// Deduped counts completions for already-done cells (first-result-wins);
	// Stale counts completions whose lease had been reclaimed or superseded.
	Deduped int64 `json:"deduped"`
	Stale   int64 `json:"stale"`
	// Fenced counts heartbeats answered "your lease is gone".
	Fenced int64 `json:"fenced"`
	// Failed counts cell-function failures (each costs a retry from the
	// cell's budget); CellRetries the requeues those failures caused;
	// Poisoned the cells that exhausted the budget and went terminal.
	Failed      int64 `json:"failed"`
	CellRetries int64 `json:"cell_retries"`
	Poisoned    int64 `json:"poisoned"`
	// ChecksumRejects counts completions thrown away because the end-to-end
	// CRC32C did not match the payload — corruption between the worker's
	// computation and the dispatcher's acceptance.
	ChecksumRejects int64 `json:"checksum_rejects"`
	// QuarantinedWorkers counts workers fenced off the campaign by strikes
	// (integrity violations, repeated lease expiries, crash loops, verify
	// divergence); QuarantineReleases the cooldown readmissions.
	QuarantinedWorkers int64 `json:"quarantined_workers"`
	QuarantineReleases int64 `json:"quarantine_releases"`
	// VerifySampled counts cells drawn into redundant verification;
	// VerifyMatches the byte-identical agreements; VerifyDivergence the
	// disagreements (each costs a tie-breaking third execution).
	VerifySampled    int64 `json:"verify_sampled"`
	VerifyMatches    int64 `json:"verify_matches"`
	VerifyDivergence int64 `json:"verify_divergence"`
	// Flushed counts results delivered to the consumer in strict index order
	// (recovered rows re-emitted on resume included).
	Flushed int64 `json:"flushed"`
	// Resumed counts cells recovered from the campaign journal at startup;
	// StaleGen counts completions and heartbeats fenced because they carried
	// a pre-restart dispatcher generation; JournalErrors counts failed
	// journal appends (the campaign continues — a lost record costs a
	// recompute, never a wrong byte).
	Resumed       int64 `json:"resumed"`
	StaleGen      int64 `json:"stale_gen"`
	JournalErrors int64 `json:"journal_errors"`
}

// DispatchHealth is the dispatcher's health verb reply, mirroring the
// mini-slurm and simd health vocabulary: a top-level ok/health plus campaign
// progress, so an operator (or the chaos test) can ask a live dispatcher how
// far the campaign is and which generation it is serving.
type DispatchHealth struct {
	OK     bool   `json:"ok"`
	Health string `json:"health"` // ok | draining | done
	// Generation is the fencing generation (1 for a journal-less or fresh
	// campaign, +1 per restart).
	Generation int64 `json:"generation"`
	// Campaign progress: CellsDone counts terminal DONE cells (recovered
	// ones included), CellsLeased cells with ≥1 live lease, Flushed the rows
	// delivered to the consumer in strict order.
	CellsTotal  int   `json:"cells_total"`
	CellsDone   int   `json:"cells_done"`
	CellsLeased int   `json:"cells_leased"`
	Flushed     int64 `json:"flushed"`
	// Connections is the number of live worker connections (transient
	// health/hello probes included while they last).
	Connections int `json:"connections"`
	// Journal reports whether the campaign is journaled; ResumedCells and
	// StaleGen mirror the recovery counters.
	Journal      bool  `json:"journal"`
	ResumedCells int64 `json:"resumed_cells"`
	StaleGen     int64 `json:"stale_gen"`
	// Integrity & containment: cell-function failures so far, terminal
	// poisoned cells (and their indices), checksum-rejected completions, and
	// quarantined workers (count and IDs) — the counters an operator triages
	// a misbehaving fleet by.
	Failed             int64    `json:"failed"`
	Poisoned           int64    `json:"poisoned"`
	PoisonedCells      []int    `json:"poisoned_cells,omitempty"`
	ChecksumRejects    int64    `json:"checksum_rejects"`
	QuarantinedWorkers int64    `json:"quarantined_workers"`
	Quarantined        []string `json:"quarantined,omitempty"`
}

// counter names one tally: its key in the process-wide "fabric" expvar map
// and its field in a dispatcher's Counters. Both spellings are read from
// outside the process, so the two that differ (stale_gen, resumed) stay as
// they are. The zero counter tallies nothing.
type counter struct {
	key   string
	field func(*Counters) *int64
}

var (
	cGranted            = counter{"granted", func(c *Counters) *int64 { return &c.Granted }}
	cSpeculativeGrants  = counter{"speculative_grants", func(c *Counters) *int64 { return &c.SpeculativeGrants }}
	cRequeues           = counter{"requeues", func(c *Counters) *int64 { return &c.Requeues }}
	cRequeueExpiry      = counter{"requeue_expiry", func(c *Counters) *int64 { return &c.RequeueExpiry }}
	cRequeueDisconnect  = counter{"requeue_disconnect", func(c *Counters) *int64 { return &c.RequeueDisconnect }}
	cCompleted          = counter{"completed", func(c *Counters) *int64 { return &c.Completed }}
	cSpeculativeWins    = counter{"speculative_wins", func(c *Counters) *int64 { return &c.SpeculativeWins }}
	cDeduped            = counter{"deduped", func(c *Counters) *int64 { return &c.Deduped }}
	cStale              = counter{"stale", func(c *Counters) *int64 { return &c.Stale }}
	cFenced             = counter{"fenced", func(c *Counters) *int64 { return &c.Fenced }}
	cFailed             = counter{"failed", func(c *Counters) *int64 { return &c.Failed }}
	cCellRetries        = counter{"cell_retries", func(c *Counters) *int64 { return &c.CellRetries }}
	cPoisoned           = counter{"poisoned", func(c *Counters) *int64 { return &c.Poisoned }}
	cChecksumRejects    = counter{"checksum_rejects", func(c *Counters) *int64 { return &c.ChecksumRejects }}
	cQuarantinedWorkers = counter{"quarantined_workers", func(c *Counters) *int64 { return &c.QuarantinedWorkers }}
	cQuarantineReleases = counter{"quarantine_releases", func(c *Counters) *int64 { return &c.QuarantineReleases }}
	cVerifySampled      = counter{"verify_sampled", func(c *Counters) *int64 { return &c.VerifySampled }}
	cVerifyMatches      = counter{"verify_matches", func(c *Counters) *int64 { return &c.VerifyMatches }}
	cVerifyDivergence   = counter{"verify_divergence", func(c *Counters) *int64 { return &c.VerifyDivergence }}
	cFlushed            = counter{"flushed", func(c *Counters) *int64 { return &c.Flushed }}
	cResumed            = counter{"resumed_cells", func(c *Counters) *int64 { return &c.Resumed }}
	cStaleGen           = counter{"stale_generation", func(c *Counters) *int64 { return &c.StaleGen }}
	cJournalErrors      = counter{"journal_errors", func(c *Counters) *int64 { return &c.JournalErrors }}
	// cRestarts is process-wide only: a dispatcher is one incarnation.
	cRestarts = counter{key: "dispatcher_restarts"}
)

// count is the one place a decision is tallied: the dispatcher's Counters and
// the process-wide expvar map ("fabric", summed over every dispatcher in the
// process) move together. Callers hold d.mu.
func (d *Dispatcher) count(c counter) {
	if c.field != nil {
		*c.field(&d.counters)++
	}
	if c.key != "" {
		fabricVars().Add(c.key, 1)
	}
}

var (
	expOnce sync.Once
	expMap  *expvar.Map
)

func fabricVars() *expvar.Map {
	expOnce.Do(func() { expMap = expvar.NewMap("fabric") })
	return expMap
}

// durMS renders a duration as the whole milliseconds the wire carries.
func durMS(d time.Duration) int64 { return int64(d / time.Millisecond) }
