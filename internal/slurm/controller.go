package slurm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acct"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweepgrid"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Controller is the slurmctld-equivalent: it owns a batch-system instance,
// admits interactive submissions against partition limits, orders the queue
// by multifactor priority, and answers queue/node introspection. Time is
// simulated; clients advance it explicitly (AdvanceChecked), which is what
// lets a whole day of batch operation replay in milliseconds.
//
// A controller opened with OpenJournaled additionally write-ahead-journals
// every external operation, so a crashed or killed controller restarts into
// exactly the state it died with (see journal.go).
//
// All methods are safe for concurrent use (the protocol server fields many
// connections against one controller).
type Controller struct {
	mu  sync.Mutex
	cfg Config
	eng *sim.Engine
	// lastID is the last job ID assigned; a submit takes lastID+1.
	lastID cluster.JobID
	// clock is the simulated clock (float64 bits), published wherever it
	// moves — the end of apply, and a follower's reset — so Now and every
	// reply's stamp read it without c.mu.
	clock atomic.Uint64

	// Journaling state; jr is nil for an in-memory-only controller.
	jr       *journal
	finSeen  int
	killSeen int
	rejSeen  int

	// done is every terminal job — finished, killed, failed, rejected or
	// cancelled — by ascending ID: the history a `queue history` read pages.
	// doneLocked extends it at read time from the engine's completion lists,
	// through cursors of its own. Terminal jobs never change again, and done
	// is only appended to past its end or replaced, never edited, so a view
	// handed out earlier stays as it was.
	done                       []*job.Job
	doneFin, doneKill, doneRej int

	// seq is the last assigned journal sequence number; entries is the
	// complete in-memory operation log (kept only when journaling or HA is
	// on). Both move only once a batch is locally durable (commitLocal), so
	// entries holds locally durable entries only. The disk snapshot is a
	// compaction — a concatenation, never a discard — so the in-memory copy
	// mirrors what disk already retains and is what the primary streams to a
	// standby (including full resyncs).
	seq     int64
	entries []Entry

	// The commit pipeline (journal.go: stage L; ha.go: stage R). pending is
	// the groups applied and waiting for stage L, flight every group applied
	// and not yet seen resolved, oldest first; committing is set while a
	// stage-L goroutine runs. readers counts reads waiting at the read
	// barrier (lockRead); no mutation applies while it is non-zero. cond
	// (on mu) is broadcast when stage L goes idle and when the last waiting
	// reader leaves.
	pending    []*commit
	flight     []*commit
	committing bool
	readers    int
	cond       *sync.Cond

	// tokens maps client-supplied submit idempotency tokens to the job ID
	// they created. Tokens ride in the journal's submit entries, so the
	// dedupe map survives crash recovery.
	tokens map[string]cluster.JobID
	// br is the journal circuit breaker (nil when disabled): consecutive
	// append failures trip the controller into read-only DEGRADED mode.
	br *breaker
	// quarantined pins the controller read-only (DEGRADED): recovery under
	// JournalCorruptPolicy=QUARANTINE salvaged a corrupt log, so the state
	// is a committed prefix, safe to read but not to extend. Cleared only by
	// an HA full resync (which rewrites the log from the primary's copy).
	quarantined bool
	// recovery is what opening the journal found (nil for in-memory
	// controllers).
	recovery *RecoveryInfo

	// HA pair state (see ha.go). epoch is the fencing term: zero while HA
	// is off (so journal entries stay byte-compatible), ≥1 once StartHA has
	// run, bumped by every promotion.
	haOn      bool
	haStopped bool
	haOpts    HAOptions
	haStop    chan struct{}
	haWG      sync.WaitGroup
	epoch     int64
	standby   bool
	needFull  bool      // follower requires a full resync (set on demotion)
	lastHeard time.Time // follower: last replicate/heartbeat from the primary
	repl      *replicator
}

// scenario is the simulation a configuration describes, with the queue
// ordered by the configured multifactor priority; Config.Validate checks it
// and newEngine builds it.
func (cfg Config) scenario() sweepgrid.Scenario {
	return sweepgrid.Scenario{
		Workload:   workload.Spec{Cluster: cfg.Machine},
		Policy:     cfg.Policy,
		Share:      cfg.Share,
		Faults:     cfg.Fault,
		QueueOrder: cfg.Priority.QueueOrder(cfg.Machine.Nodes),
	}
}

// newEngine builds the simulation engine for a validated configuration.
func newEngine(cfg Config) (*sim.Engine, error) { return cfg.scenario().Engine() }

// NewController builds a controller from a validated configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, eng: eng, tokens: make(map[string]cluster.JobID)}
	c.cond = sync.NewCond(&c.mu)
	if cfg.Overload.BreakerThreshold > 0 {
		c.br = newBreaker(cfg.Overload.BreakerThreshold, cfg.Overload.BreakerCooldown)
	}
	return c, nil
}

// OpenJournaled builds a controller whose state survives crashes: every
// external operation is write-ahead-journaled under dir, and any journal
// already there is replayed first, restoring the pre-crash queue, node, and
// clock state. snapshotEvery bounds the live journal: after that many
// appends it is compacted into the snapshot (0 = never compact). The same
// configuration must be supplied across restarts; the simulation is
// deterministic, so replay reproduces the original run exactly.
func OpenJournaled(cfg Config, dir string, snapshotEvery int) (*Controller, error) {
	return OpenJournaledFS(cfg, vfs.OS{}, dir, snapshotEvery)
}

// OpenJournaledFS is OpenJournaled on an explicit filesystem, the seam the
// storage-fault tests inject a vfs.Faulty through. Recovery follows the
// state machine in journal.go: a torn journal tail is truncated and the
// committed prefix replayed; corruption either refuses to open
// (JournalCorruptPolicy=FAIL, the default) or salvages the committed prefix
// and starts the controller read-only DEGRADED with the damaged records
// preserved in quarantine.jsonl (QUARANTINE).
func OpenJournaledFS(cfg Config, fsys vfs.FS, dir string, snapshotEvery int) (*Controller, error) {
	c, err := NewController(cfg)
	if err != nil {
		return nil, err
	}
	j, entries, info, err := openJournal(fsys, dir, snapshotEvery, cfg.JournalCorruptPolicy)
	if err != nil {
		return nil, err
	}
	if err := c.replay(entries); err != nil {
		j.close()
		return nil, err
	}
	c.entries = entries
	if len(entries) > 0 {
		c.seq = entries[len(entries)-1].Seq
	}
	c.jr = j
	c.recovery = info
	c.quarantined = info.Quarantined
	return c, nil
}

// replay re-applies recovered journal entries in order; an entry that apply
// refuses means the journal and the configuration have diverged. Completions
// reproduced by replay were already journaled, so auditing resumes after them.
func (c *Controller) replay(entries []Entry) error {
	for _, e := range entries {
		if err := c.apply(&e); err != nil {
			return fmt.Errorf("slurm: replay entry %d (%s): %w", e.Seq, e.Op, err)
		}
	}
	c.skipAudits()
	return nil
}

// maxClock bounds the simulated clock, and any one walltime or runtime, in
// seconds (≈ 31.7 years): float64 resolves 0.12 µs at 1e9 s, so one request
// cannot cost the clock its sub-microsecond resolution. It is an input bound
// only — a drain carries the clock on by the queued walltimes — and that is
// safe: job.Finish accepts the residue the clock's resolution at the
// completion instant explains, however far the instant is
// (TestControllerDrainAtFarClock).
const maxClock = 1e9

// apply runs one journal entry against the engine. It is the only place a
// mutating verb touches the engine, shared by the live path (mutate), crash
// replay and follower-apply, so all three validate and behave alike. A submit
// whose e.ID is zero is live: apply assigns the next ID and records it in
// e; a non-zero e.ID is the journaled, authoritative one, and a different
// assignment is divergence. It is also the one place the simulated clock
// moves, so it is where the clock is published for Now. Callers hold c.mu.
func (c *Controller) apply(e *Entry) error {
	defer c.publishClock()
	// The effective fencing term is the highest ever journaled, so a
	// restarted deposed primary cannot forget it was deposed.
	if e.Epoch > c.epoch {
		c.epoch = e.Epoch
	}
	switch e.Op {
	case "record", "brownout", "epoch":
		// Audit output, the degradation trail and the promotion marker are
		// not inputs.
		return nil
	case "submit":
		return c.applySubmit(e)
	case "cancel":
		id := cluster.JobID(e.ID)
		err := c.eng.CancelPending(id)
		if err != nil && slices.ContainsFunc(c.eng.Running(), func(r *sched.RunningJob) bool { return r.Job.ID == id }) {
			// The simulator does not preempt: a started job leaves the
			// machine only by eviction.
			return fmt.Errorf("slurm: job %d is running and scancel cancels pending jobs only; scontrol -requeue %d evicts it", id, id)
		}
		return err
	case "advance":
		if e.Seconds < 0 {
			return nil // a negative advance is a no-op
		}
		to := c.eng.Now() + des.Duration(e.Seconds)
		if !(to <= maxClock) { // NaN and +Inf fail too
			return fmt.Errorf("slurm: advance by %gs would move the clock past %gs", e.Seconds, float64(maxClock))
		}
		c.eng.Run(to)
		return nil
	case "drain":
		c.eng.RunAll()
		return nil
	case "drain_node":
		return c.setDrained(e.Node, true)
	case "resume_node":
		return c.setDrained(e.Node, false)
	case "requeue":
		return c.settle(c.eng.RequeueRunning(cluster.JobID(e.ID)))
	case "down_node":
		return c.settle(c.eng.FailNode(e.Node))
	case "up_node":
		return c.settle(c.eng.RepairNode(e.Node))
	}
	return fmt.Errorf("unknown op %q", e.Op)
}

// settle runs the events an engine call queued at the current instant
// (arrivals, evictions, restarts), so the change is visible — a submitted job
// in squeue, started if resources are free — as soon as it is acknowledged.
func (c *Controller) settle(err error) error {
	if err == nil {
		c.eng.Run(c.eng.Now())
	}
	return err
}

// setDrained takes a node out of scheduling (running jobs finish in place, no
// new work lands) or returns it to service, kicking the scheduler so waiting
// work can use it immediately.
func (c *Controller) setDrained(ni int, drained bool) error {
	cl := c.eng.Cluster()
	if ni < 0 || ni >= cl.Size() {
		return fmt.Errorf("slurm: node %d out of range (cluster has %d nodes)", ni, cl.Size())
	}
	cl.SetDrained(ni, drained)
	if !drained {
		c.eng.Kick()
	}
	return nil
}

// Health states reported by the `health` verb.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDraining = "draining"
	// HealthFenced marks a primary whose replication lease has lapsed: the
	// standby may have promoted, so mutations are rejected until the pair
	// reconciles (see ha.go).
	HealthFenced = "fenced"
)

// DefaultBreakerCooldown is how long a tripped breaker stays closed to
// mutations before going half-open.
const DefaultBreakerCooldown = 5 * time.Second

// breaker is the journal circuit breaker, the controller's write gate: when
// stable storage misbehaves (full disk, dead device) the controller trips
// into a read-only DEGRADED mode — queries still served, mutations rejected —
// instead of acknowledging writes it cannot make durable. After a cooldown
// the breaker goes half-open and lets mutations probe the journal again.
// feedBreaker feeds it, once per stage-L commit, and checkWritable consults
// it, both under c.mu.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	fails   int
	tripped bool
	until   time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cmp.Or(cooldown, DefaultBreakerCooldown), now: time.Now}
}

// failure records one journal append failure, tripping (or re-tripping, if
// half-open) the breaker once the consecutive-failure threshold is reached.
func (b *breaker) failure() {
	b.fails++
	if b.fails >= b.threshold {
		b.tripped = true
		b.until = b.now().Add(b.cooldown)
	}
}

// success records a durable append and fully closes the breaker.
func (b *breaker) success() {
	b.fails = 0
	b.tripped = false
}

// writable reports whether mutations may proceed: always when closed, and
// once the cooldown has elapsed (half-open — the next mutation probes the
// journal; its outcome re-trips or resets).
func (b *breaker) writable() bool {
	return !b.tripped || !b.now().Before(b.until)
}

// degraded reports whether the breaker is tripped (including half-open:
// health stays "degraded" until an append actually succeeds).
func (b *breaker) degraded() bool { return b.tripped }

// ErrDegraded is returned for mutations while the journal circuit breaker
// is tripped: the controller cannot make writes durable, so it serves
// queries only rather than acknowledging work it could lose.
var ErrDegraded = fmt.Errorf("slurm: controller degraded (journal unavailable), mutations rejected")

// checkWritable gates mutations: a standby serves reads only, a primary
// whose replication lease has lapsed is fenced, and a tripped journal
// breaker means read-only DEGRADED. Callers hold c.mu.
func (c *Controller) checkWritable() error {
	if c.standby {
		return ErrNotPrimary
	}
	if c.repl != nil && c.repl.leaseLost(time.Now()) {
		return ErrFenced
	}
	if c.quarantined || (c.br != nil && !c.br.writable()) {
		return ErrDegraded
	}
	return nil
}

// Health reports the controller's health: "degraded" while the journal
// breaker is tripped, "fenced" for a primary whose replication lease has
// lapsed, "ok" otherwise. (The protocol server layers "draining" on top
// during shutdown.)
// Neither it nor checkWritable waits on a replication round trip: the lease
// is read from the replicator's atomic lastAck, and stage R holds no lock
// while its request is on the wire.
func (c *Controller) Health() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined || (c.br != nil && c.br.degraded()) {
		return HealthDegraded
	}
	if !c.standby && c.repl != nil && c.repl.leaseLost(time.Now()) {
		return HealthFenced
	}
	return HealthOK
}

// noteBrownout journals one brownout ladder transition (Op:"brownout",
// skipped on replay like audit records) so post-incident analysis can line
// degradation up against the operation log. It goes through the commit
// pipeline like any mutation but waits for nothing: an append failure
// already surfaces through the breaker and journal_sync_errors. A follower
// journals only what the primary streams, so standbys skip it.
func (c *Controller) noteBrownout(level int, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.standby {
		return
	}
	c.queueGroupLocked(Entry{Op: "brownout", Name: name, ID: int64(level)})
}

// queueGroupLocked is the end of the apply stage: it builds one mutation's
// group — the operation entry followed by an audit record (an acct.Record)
// for every job that reached a terminal state since the last group — and
// queues it for stage L, starting a stage-L goroutine if none runs. The
// group is stamped with the epoch it was accepted under now and with its
// Seqs in stage L; the audit cursors move now, so the next group does not
// audit the same completions, and a failed stage L rewinds them. It returns the group's ticket. Without a journal and without
// HA the log is not retained at all (in-memory controllers stay cheap), and
// the ticket is nil: the apply was the whole mutation. Callers hold c.mu.
func (c *Controller) queueGroupLocked(e Entry) *commit {
	if c.jr == nil && !c.haOn {
		return nil
	}
	fin, killed, rej := c.eng.Finished(), c.eng.Killed(), c.eng.Rejected()
	t := newCommit([]Entry{e}, [3]int{c.finSeen, c.killSeen, c.rejSeen})
	for _, jobs := range [][]*job.Job{fin[c.finSeen:], killed[c.killSeen:], rej[c.rejSeen:]} {
		for _, j := range jobs {
			rec := acct.FromJob(j)
			t.group = append(t.group, Entry{Op: "record", Record: &rec})
		}
	}
	c.finSeen, c.killSeen, c.rejSeen = len(fin), len(killed), len(rej)
	for i := range t.group {
		if c.haOn && t.group[i].Epoch == 0 {
			t.group[i].Epoch = c.epoch // the term it was accepted under
		}
	}
	for len(c.flight) > 0 && c.flight[0].resolved() {
		c.flight[0] = nil
		c.flight = c.flight[1:]
	}
	c.flight = append(c.flight, t)
	c.pending = append(c.pending, t)
	if !c.committing {
		c.committing = true
		go c.commitLocal()
	}
	return t
}

// inFlightLocked returns the unresolved ticket of the group that carries
// token, or nil. Callers hold c.mu.
func (c *Controller) inFlightLocked(token string) *commit {
	for _, t := range c.flight {
		if t.group[0].Token == token && !t.resolved() {
			return t
		}
	}
	return nil
}

// awaitLocalLocked waits until no stage-L goroutine runs, so the caller may
// touch the journal, c.seq and c.entries itself. Callers hold c.mu, which
// the wait releases; the state they checked before it may have moved.
func (c *Controller) awaitLocalLocked() {
	for c.committing {
		c.cond.Wait()
	}
}

// lockRead takes c.mu for a read of engine state — queue, nodes, stats,
// history — once every group applied before it has cleared the pipeline
// (acknowledged or failed): a read sees only acknowledged state. Groups
// resolve in the order they were applied, so waiting for the newest one
// waits for all. While a read waits no mutation applies, so reads cannot
// starve behind a stream of writes. The caller unlocks c.mu.
func (c *Controller) lockRead() {
	c.mu.Lock()
	n := len(c.flight)
	if n == 0 || c.flight[n-1].resolved() {
		return
	}
	last := c.flight[n-1]
	c.readers++
	c.mu.Unlock()
	<-last.done
	c.mu.Lock()
	c.readers--
	if c.readers == 0 {
		c.cond.Broadcast()
	}
}

// feedBreaker reports one journal write's outcome to the circuit breaker
// (when configured) and passes the error through.
func (c *Controller) feedBreaker(err error) error {
	if c.br != nil {
		if err != nil {
			c.br.failure()
		} else {
			c.br.success()
		}
	}
	return err
}

// skipAudits moves the audit cursors past every completion the engine holds:
// after replay they were journaled before the crash, and on a follower the
// primary's record entries arrive in-stream, so neither may re-audit them.
func (c *Controller) skipAudits() {
	c.finSeen = len(c.eng.Finished())
	c.killSeen = len(c.eng.Killed())
	c.rejSeen = len(c.eng.Rejected())
}

// Close stops HA replication, waits for stage L to finish what was applied,
// then releases the journal (no-op without one).
func (c *Controller) Close() error {
	c.StopHA()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.awaitLocalLocked()
	if c.jr == nil {
		return nil
	}
	err := c.jr.close()
	c.jr = nil
	return err
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Now returns the simulated clock as of the last applied entry, without
// taking c.mu: a reply is stamped with it, and a refusal must not wait on the
// writer whose fsync caused it.
func (c *Controller) Now() des.Time {
	return des.Time(math.Float64frombits(c.clock.Load()))
}

// publishClock copies the engine clock to where Now reads it. Callers hold
// c.mu.
func (c *Controller) publishClock() {
	c.clock.Store(math.Float64bits(float64(c.eng.Now())))
}

// mutate is the one live write path: every mutating verb — from the wire
// (Server.handleB) or the exported methods below — arrives as the Entry it
// will be journaled as. The apply stage (applyStage) runs under c.mu and
// queues the mutation's group; mutate then waits, without c.mu, on the
// group's ticket while stages L and R commit it (journal.go, ha.go). An
// already-spent deadline budget is refused before the apply; one that runs
// out while the ticket waits for replication returns ErrDeadlineExceeded
// once the group is locally durable (commit.wait), which is not an
// acknowledgement — the group still commits. For a submit, e.ID carries the
// assigned job ID back, also when a repeat of an accepted idempotency token
// is answered without enqueueing anything. A repeat whose first attempt is
// still in flight waits on that attempt's ticket and gets its outcome; if
// the first attempt never became durable, the repeat is enqueued afresh.
func (c *Controller) mutate(b budget, e *Entry) error {
	for {
		t, joined, err := c.applyStage(b, e)
		if t == nil || err != nil {
			return err
		}
		err = t.wait(b, e.Op)
		if !joined || !errors.Is(err, ErrJournalAppend) {
			return err
		}
		e.ID = 0 // the token was withdrawn with its failed group
	}
}

// applyStage is mutate's part under c.mu: wait out a read at the barrier,
// dedupe the idempotency token, check the budget and writability, apply the
// entry and queue its group. It returns the ticket to wait on — the
// mutation's own, or (joined) that of the in-flight group a repeated token
// belongs to — or nil when there is nothing to wait for.
func (c *Controller) applyStage(b budget, e *Entry) (t *commit, joined bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.readers > 0 {
		c.cond.Wait()
	}
	if e.Token != "" {
		if id, ok := c.tokens[e.Token]; ok {
			e.ID = int64(id)
			return c.inFlightLocked(e.Token), true, nil
		}
	}
	if b.expired(time.Now()) {
		return nil, false, fmt.Errorf("%w: budget spent before work began", ErrDeadlineExceeded)
	}
	if err := c.checkWritable(); err != nil {
		return nil, false, err
	}
	if err := c.apply(e); err != nil {
		return nil, false, err
	}
	return c.queueGroupLocked(*e), false, nil
}

// applySubmit admits a job at the current simulated time, enforcing
// partition limits as slurmctld does at submission, and records its
// idempotency token (journaled with the entry, so dedupe survives recovery
// and failover).
func (c *Controller) applySubmit(e *Entry) error {
	wall := des.Duration(e.Walltime)
	if !(e.Walltime <= maxClock && e.Runtime <= maxClock) { // NaN fails too
		return fmt.Errorf("slurm: walltime %gs / runtime %gs exceeds the %gs clock bound",
			e.Walltime, e.Runtime, float64(maxClock))
	}
	if c.cfg.Partition.MaxTime > 0 && wall > c.cfg.Partition.MaxTime {
		return fmt.Errorf("slurm: walltime %v exceeds partition MaxTime %v",
			wall, c.cfg.Partition.MaxTime)
	}
	maxNodes := c.cfg.Partition.MaxNodes
	if maxNodes == 0 {
		maxNodes = c.cfg.Machine.Nodes
	}
	if e.Nodes > maxNodes {
		return fmt.Errorf("slurm: %d nodes exceeds partition MaxNodes %d",
			e.Nodes, maxNodes)
	}
	after := make([]cluster.JobID, len(e.After))
	for i, a := range e.After {
		after[i] = cluster.JobID(a)
	}
	model, err := app.ByName(e.App)
	if err != nil {
		return err
	}
	if wall <= 0 {
		return fmt.Errorf("slurm: job needs a positive walltime, got %v", wall)
	}
	runtime := des.Duration(e.Runtime)
	if runtime == 0 {
		runtime = wall * 6 / 10 // a typical overestimation ratio
	}
	live := e.ID == 0
	if !live && cluster.JobID(e.ID)-1 > c.lastID {
		// The journaled ID is authoritative: a submit whose append failed
		// (and was rolled back) still burned a live ID, so the counter may
		// trail the log. Fast-forward, then require an exact match — a
		// journal ID *behind* the counter is real divergence.
		c.lastID = cluster.JobID(e.ID) - 1
	}
	// The ID is taken before the engine validates the job, so a refused
	// submit burns it too.
	c.lastID++
	id := c.lastID
	name := e.Name
	if name == "" {
		name = fmt.Sprintf("%s-%d", e.App, id)
	}
	if err := c.eng.Submit(&job.Job{
		ID: id, Name: name, App: model, Nodes: e.Nodes, ReqWalltime: wall,
		TrueRuntime: runtime, Submit: c.eng.Now(), After: after,
	}); err != nil {
		return err
	}
	if live {
		e.ID = int64(id)
	} else if int64(id) != e.ID {
		return fmt.Errorf("job ID diverged: got %d, journal has %d", id, e.ID)
	}
	if e.Token != "" {
		c.tokens[e.Token] = id
	}
	return c.settle(nil)
}

// SubmitToken admits a job at the current simulated time. Optional
// dependency IDs implement sbatch --dependency=afterok. A non-empty token is
// a client-supplied idempotency key: a repeat of an already-accepted token
// returns the original job's ID without enqueueing anything, so a client
// whose submit response was lost can retry safely.
func (c *Controller) SubmitToken(token, appName string, nodes int, wall, runtime des.Duration, name string, after ...cluster.JobID) (cluster.JobID, error) {
	deps := make([]int64, len(after))
	for i, a := range after {
		deps[i] = int64(a)
	}
	e := Entry{Op: "submit", App: appName, Nodes: nodes, Walltime: float64(wall),
		Runtime: float64(runtime), Name: name, After: deps, Token: token}
	err := c.mutate(budget{}, &e)
	return cluster.JobID(e.ID), err
}

// AdvanceChecked moves the simulated clock forward by d, executing every
// event in the window. It rejects while the controller is DEGRADED, refuses
// to carry the clock past maxClock, and reports a failed journal append.
func (c *Controller) AdvanceChecked(d des.Duration) (des.Time, error) {
	err := c.mutate(budget{}, &Entry{Op: "advance", Seconds: float64(d)})
	return c.Now(), err
}

// Stats computes the evaluation metrics for the work so far.
func (c *Controller) Stats() metrics.Result {
	c.lockRead()
	defer c.mu.Unlock()
	return c.eng.Result()
}

// JobInfo is one squeue row.
type JobInfo struct {
	ID       int64   `json:"id"`
	Name     string  `json:"name"`
	App      string  `json:"app"`
	State    string  `json:"state"`
	Nodes    int     `json:"nodes"`
	Submit   float64 `json:"submit"`
	Start    float64 `json:"start,omitempty"`
	End      float64 `json:"end,omitempty"`
	Limit    float64 `json:"limit"`
	NodeList []int   `json:"nodelist,omitempty"`
	Shared   bool    `json:"shared,omitempty"`
	Priority float64 `json:"priority"`
	// Reason is why a held pending job waits, as the engine's Held reports
	// it and squeue's REASON column shows it: "Dependency" for a job held on
	// an afterok dependency, "BeginTime" for a requeued job waiting out its
	// backoff. A queued or running job has none.
	Reason string `json:"reason,omitempty"`
}

// Queue returns pending and running jobs, running first (like squeue's
// default sort), pending in priority order.
func (c *Controller) Queue() []JobInfo {
	c.lockRead()
	defer c.mu.Unlock()
	return c.queueLocked()
}

func (c *Controller) queueLocked() []JobInfo {
	now := c.eng.Now()
	var out []JobInfo
	for _, r := range c.eng.Running() {
		info := jobRow(r.Job)
		info.NodeList, info.Shared = r.NodeIDs, !r.Exclusive
		info.Priority = c.cfg.Priority.Priority(r.Job, now, c.cfg.Machine.Nodes)
		out = append(out, info)
	}
	for _, j := range c.eng.Pending() {
		info := jobRow(j)
		info.Priority = c.cfg.Priority.Priority(j, now, c.cfg.Machine.Nodes)
		out = append(out, info)
	}
	c.eng.Held(func(j *job.Job, reason string) {
		info := jobRow(j)
		info.Reason = reason
		out = append(out, info)
	})
	return out
}

// History returns finished and cancelled jobs (sacct-like), by ID.
func (c *Controller) History() []JobInfo {
	c.lockRead()
	done := c.doneLocked()
	c.mu.Unlock()
	var out []JobInfo
	for _, j := range done {
		out = append(out, jobRow(j))
	}
	return out
}

// jobRow is j's squeue or sacct row as far as the job itself tells it: a
// started job's start, a finished one's sharing, an ended one's end. The
// queue adds a live job's priority, nodes and hold reason.
func jobRow(j *job.Job) JobInfo {
	info := JobInfo{
		ID: int64(j.ID), Name: j.Name, App: j.App.Name,
		State: j.State().String(), Nodes: j.Nodes,
		Submit: float64(j.Submit), Limit: float64(j.ReqWalltime),
	}
	switch j.State() {
	case job.Pending: // nothing more until it starts
	case job.Running:
		info.Start = float64(j.StartTime())
	case job.Finished:
		info.Start, info.Shared = float64(j.StartTime()), j.EverShared()
		info.End = float64(j.EndTime())
	default: // ended unfinished: cancelled, killed or failed
		info.End = float64(j.EndTime())
	}
	return info
}

// doneLocked brings c.done up to date with the engine and returns it. Only
// the jobs that reached a terminal state since the last call are sorted;
// they are merged in behind the last job with a smaller ID. Where that is
// before the end, the merge writes a new slice and leaves the old one to the
// views that hold it. Callers hold c.mu.
func (c *Controller) doneLocked() []*job.Job {
	fin, killed, rej := c.eng.Finished(), c.eng.Killed(), c.eng.Rejected()
	fresh := slices.Concat(fin[c.doneFin:], killed[c.doneKill:], rej[c.doneRej:])
	c.doneFin, c.doneKill, c.doneRej = len(fin), len(killed), len(rej)
	if len(fresh) == 0 {
		return c.done
	}
	slices.SortFunc(fresh, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	old := c.done
	i := sort.Search(len(old), func(i int) bool { return old[i].ID > fresh[0].ID })
	if i == len(old) {
		c.done = append(old, fresh...)
	} else {
		merged := make([]*job.Job, i, len(old)+len(fresh))
		copy(merged, old[:i])
		for k := 0; i < len(old) || k < len(fresh); {
			if k == len(fresh) || (i < len(old) && old[i].ID < fresh[k].ID) {
				merged = append(merged, old[i])
				i++
			} else {
				merged = append(merged, fresh[k])
				k++
			}
		}
		c.done = merged
	}
	return c.done
}

// queueView is one queue read before paging: the live queue's rows and,
// for a history read, every terminal job by ascending ID. It is taken under
// one lock and never changes after, so it is paged — and at BrownoutStale
// re-served — without the lock, and only the rows a page keeps become
// JobInfos.
type queueView struct {
	live []JobInfo
	done []*job.Job
}

// queueView takes the view a queue read (with history, when asked) pages.
func (c *Controller) queueView(history bool) queueView {
	c.lockRead()
	defer c.mu.Unlock()
	v := queueView{live: c.queueLocked()}
	if history {
		v.done = c.doneLocked()
	}
	return v
}

// rows renders rows [lo, hi) of the view: live rows first, then terminal
// jobs. A range inside the live rows is a subslice of them.
func (v queueView) rows(lo, hi int) []JobInfo {
	n := len(v.live)
	if hi <= n {
		return v.live[lo:hi]
	}
	out := make([]JobInfo, 0, hi-lo)
	if lo < n {
		out = append(out, v.live[lo:]...)
	}
	for _, j := range v.done[max(lo-n, 0) : hi-n] {
		out = append(out, jobRow(j))
	}
	return out
}

// NodeInfo is one sinfo row.
type NodeInfo struct {
	ID          int     `json:"id"`
	State       string  `json:"state"` // idle | allocated | shared
	Jobs        []int64 `json:"jobs,omitempty"`
	FreeThreads int     `json:"free_threads"`
	FreeMemMB   int     `json:"free_mem_mb"`
}

// Nodes returns per-node allocation state.
func (c *Controller) Nodes() []NodeInfo {
	c.lockRead()
	defer c.mu.Unlock()
	cl := c.eng.Cluster()
	out := make([]NodeInfo, 0, cl.Size())
	for i := 0; i < cl.Size(); i++ {
		n := cl.Node(i)
		state := "idle"
		switch {
		case n.Down():
			state = "down"
		case n.Drained() && n.Idle():
			state = "drained"
		case n.Drained():
			state = "draining"
		case n.SharingDegree() >= 2:
			state = "shared"
		case !n.Idle():
			state = "allocated"
		}
		var jobs []int64
		for _, id := range n.Jobs() {
			jobs = append(jobs, int64(id))
		}
		out = append(out, NodeInfo{
			ID: i, State: state, Jobs: jobs,
			FreeThreads: n.FreeThreads(), FreeMemMB: n.MemFreeMB(),
		})
	}
	return out
}
