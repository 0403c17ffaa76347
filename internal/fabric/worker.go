package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lineproto"
	"repro/internal/retry"
)

// WorkerConfig shapes one worker loop (a simd daemon runs one per parallel
// slot, all sharing the daemon's ID prefix).
type WorkerConfig struct {
	// ID names the worker to the dispatcher; it must be stable across
	// reconnects (leases are keyed by worker + epoch).
	ID string
	// Addr is the dispatcher's address (possibly a chaos proxy in tests).
	Addr string
	// Fn computes one cell. It must be a pure function of the index —
	// everything needed comes from the spec the daemon fetched at hello.
	// ctx is cancelled when the worker is fenced off the cell or killed;
	// Fn may ignore it (the result is then discarded on return). progress
	// reports an in-cell completion estimate (0..1) carried on heartbeats.
	Fn func(ctx context.Context, cell int, progress func(float64)) ([]byte, error)
	// Retry drives reconnect backoff with jitter (default:
	// retry.DefaultPolicy seeded from the ID hash).
	Retry *retry.Policy
	// RequestTimeout bounds one protocol round trip (default 10s); without
	// it a black-holed (partitioned, not refused) dispatcher stalls the
	// worker until the OS gives up.
	RequestTimeout time.Duration
	// HeartbeatEvery overrides the dispatcher's advertised cadence (tests
	// stretch it to keep a straggler un-heartbeated).
	HeartbeatEvery time.Duration
	// IdleWait caps how long the worker sleeps when the dispatcher has
	// nothing leasable (default 200ms; the dispatcher's hint may be shorter).
	IdleWait time.Duration
	// MaxReconnect bounds how many consecutive lease rounds may exhaust the
	// whole retry budget before Run gives up with ErrDispatcherUnreachable
	// (0 = keep trying forever — the PR 6 behavior). A permanently dead
	// dispatcher then produces a clean nonzero exit instead of an immortal
	// retry loop; rounds that reach the dispatcher reset the count.
	MaxReconnect int
}

// Worker health states, mirroring the mini-slurm health vocabulary.
const (
	HealthOK          = "ok"
	HealthDraining    = "draining"
	HealthFenced      = "fenced"
	HealthQuarantined = "quarantined"
)

// ErrDispatcherUnreachable is returned by Run when MaxReconnect consecutive
// lease rounds failed to reach the dispatcher at all.
var ErrDispatcherUnreachable = errors.New("fabric: dispatcher unreachable")

// Worker is one lease-execute-complete loop against a dispatcher.
type Worker struct {
	cfg WorkerConfig

	// connMu serializes protocol exchanges on the single connection: the
	// heartbeat goroutine and the main loop interleave whole request/response
	// pairs, never bytes.
	connMu  sync.Mutex
	conn    *lineproto.Conn
	hbEvery time.Duration
	// specSHAHex is the campaign identity from the last hello, bound into
	// every completion checksum so the dispatcher can verify the payload it
	// receives is the payload this worker computed, for this campaign.
	specSHAHex string

	cancel      atomic.Pointer[context.CancelFunc] // Run's, for Kill
	draining    atomic.Bool
	killed      atomic.Bool
	fenced      atomic.Bool
	quarantined atomic.Bool
	cellsDone   atomic.Int64
	curCell     atomic.Int64 // -1 while idle
	curEpoch    atomic.Int64
	// gen is the dispatcher generation from the most recent hello. A lease
	// carries the generation it was granted under; if the dispatcher
	// restarts, the reconnect's hello adopts the new generation while the
	// in-flight completion still carries the old one — the dispatcher fences
	// it and the worker re-leases, which is the whole self-fence story.
	gen atomic.Int64
}

// NewWorker validates cfg and builds a worker (Run starts it).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("fabric: worker ID is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("fabric: dispatcher Addr is required")
	}
	if cfg.Fn == nil {
		return nil, errors.New("fabric: worker Fn is required")
	}
	if cfg.Retry == nil {
		cfg.Retry = retry.DefaultPolicy(idSeed(cfg.ID))
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.IdleWait <= 0 {
		cfg.IdleWait = 200 * time.Millisecond
	}
	w := &Worker{cfg: cfg}
	w.curCell.Store(-1)
	return w, nil
}

// idSeed derives a backoff-jitter seed from the worker ID, so a fleet of
// daemons reconnecting after the same partition spreads out instead of
// stampeding in lockstep.
func idSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Run leases, executes, and completes cells until the campaign is done
// (returns nil), ctx is cancelled, or Kill is called. Drain lets the
// in-flight cell finish and complete before returning.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.cancel.Store(&cancel)
	if w.killed.Load() {
		cancel() // Kill came first and found nothing to cancel
	}
	defer w.closeConn()
	failedRounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			w.request(ctx, request{Op: "goodbye", Worker: w.cfg.ID})
			return nil
		}
		resp, err := w.request(ctx, request{Op: "lease", Worker: w.cfg.ID})
		if err != nil {
			// A whole retry budget burned without reaching the dispatcher
			// (long partition, or it is simply gone). With MaxReconnect set,
			// give up after that many consecutive dead rounds — a permanently
			// dead dispatcher should produce a clean failure, not an immortal
			// loop. Between rounds the backoff is the policy's capped,
			// jittered delay, so a fleet waiting out the same outage does not
			// stampede the moment it ends.
			failedRounds++
			if w.cfg.MaxReconnect > 0 && failedRounds >= w.cfg.MaxReconnect {
				return fmt.Errorf("%w: %s after %d reconnect rounds: %v",
					ErrDispatcherUnreachable, w.cfg.Addr, failedRounds, err)
			}
			if !w.sleepCtx(ctx, w.cfg.Retry.Delay(failedRounds-1, 0)) {
				return ctx.Err()
			}
			continue
		}
		failedRounds = 0
		if resp.Done {
			return nil
		}
		if resp.Quarantined {
			// Fenced off the campaign. Idle-poll rather than exit: a cooldown
			// release or operator action may readmit us, and the health verb
			// should report the quarantine meanwhile.
			w.quarantined.Store(true)
			if !w.sleepCtx(ctx, w.cfg.IdleWait) {
				return ctx.Err()
			}
			continue
		}
		w.quarantined.Store(false)
		if !resp.Granted {
			wait := time.Duration(resp.WaitMS) * time.Millisecond
			if wait <= 0 || wait > w.cfg.IdleWait {
				wait = w.cfg.IdleWait
			}
			if !w.sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.fenced.Store(false)
		if ctx.Err() == nil { // a Kill that landed during the grant's round trip runs nothing
			w.runCell(ctx, resp.Cell, resp.Epoch, resp.Gen)
		}
	}
}

// Drain asks the worker to finish its in-flight cell (completing it) and
// then exit Run — the graceful shutdown a SIGTERM maps to.
func (w *Worker) Drain() { w.draining.Store(true) }

// Kill abandons everything immediately: the in-flight cell is cancelled and
// never completed, the connection is severed mid-stream. This is the crash
// the chaos test injects at seeded points.
func (w *Worker) Kill() {
	w.killed.Store(true)
	if cancel := w.cancel.Load(); cancel != nil {
		(*cancel)()
	}
	w.closeConn()
}

// Snapshot reports the worker's health for the simd health verb.
func (w *Worker) Snapshot() WorkerSnapshot {
	health := HealthOK
	if w.fenced.Load() {
		health = HealthFenced
	}
	if w.quarantined.Load() {
		health = HealthQuarantined
	}
	if w.draining.Load() {
		health = HealthDraining
	}
	return WorkerSnapshot{
		ID:         w.cfg.ID,
		Health:     health,
		CellsDone:  w.cellsDone.Load(),
		LeaseCell:  w.curCell.Load(),
		LeaseEpoch: w.curEpoch.Load(),
		Generation: w.gen.Load(),
	}
}

// runCell executes one leased cell: heartbeats in the background, the cell
// function in the foreground, then a completion attempt whose Duplicate or
// Stale verdict is absorbed silently (someone else won; our work dedupes).
func (w *Worker) runCell(ctx context.Context, cell int, epoch, gen int64) {
	w.curCell.Store(int64(cell))
	w.curEpoch.Store(epoch)
	defer w.curCell.Store(-1)

	cellCtx, cancelCell := context.WithCancel(ctx)
	defer cancelCell()
	var progress atomicFloat
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(cellCtx, cell, epoch, gen, &progress, cancelCell)
	}()

	result, err := w.cfg.Fn(cellCtx, cell, progress.store)
	cancelCell()
	<-hbDone

	if w.killed.Load() {
		return // crashed mid-cell: no completion, the lease dies with us
	}
	if w.fenced.Load() {
		return // lease lost: self-fence, discard the result
	}
	req := request{Op: "complete", Worker: w.cfg.ID, Cell: cell, Epoch: epoch, Gen: gen, Result: result}
	if err != nil {
		req.Result = nil
		req.Err = err.Error()
	} else {
		// The checksum is computed here, the moment the cell function's bytes
		// are in hand: anything that corrupts them between this line and the
		// dispatcher's verification — worker memory, serialization, the wire —
		// breaks the CRC and the completion is rejected instead of accepted.
		req.Sum = completionSum(w.campaignSHA(), cell, result)
	}
	resp, rerr := w.request(ctx, req)
	if rerr != nil {
		return // completion lost; the lease will expire and the cell requeue
	}
	if err == nil && !resp.Stale && !resp.Duplicate && !resp.Rejected {
		w.cellsDone.Add(1)
	}
}

// campaignSHA is the campaign identity adopted at the last hello.
func (w *Worker) campaignSHA() string {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	return w.specSHAHex
}

// heartbeatLoop renews the lease until the cell context ends. A "fenced"
// answer cancels the cell: the lease is gone, so finishing the work can
// only produce a stale completion.
func (w *Worker) heartbeatLoop(ctx context.Context, cell int, epoch, gen int64, progress *atomicFloat, fence func()) {
	every := w.cfg.HeartbeatEvery
	if every <= 0 {
		w.connMu.Lock()
		every = w.hbEvery
		w.connMu.Unlock()
	}
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		resp, err := w.request(ctx, request{
			Op: "heartbeat", Worker: w.cfg.ID, Cell: cell, Epoch: epoch, Gen: gen,
			Progress: progress.load(),
		})
		if err != nil {
			continue // reconnect already retried; the grace period covers us
		}
		if resp.Fenced {
			w.fenced.Store(true)
			fence()
			return
		}
	}
}

// request performs one exchange, transparently redialing (with jittered
// backoff and a fresh hello) on transport errors, up to the retry budget. A
// cancel or Kill ends it where it stands — between attempts and in the
// middle of a backoff alike: a worker told to stop must not dial again.
func (w *Worker) request(ctx context.Context, req request) (response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := w.exchange(req)
		if err == nil {
			return resp, nil
		}
		if attempt >= w.cfg.Retry.MaxAttempts-1 || !w.backoff(ctx, w.cfg.Retry.Delay(attempt, 0)) {
			return response{}, err
		}
	}
}

// backoff waits d through the policy's Sleep primitive, or until ctx ends if
// that is sooner, and reports whether the worker is still meant to be
// running. The sleep runs on a goroutine of its own, which ends with the
// sleep (at most the policy's capped delay later) and touches nothing else.
func (w *Worker) backoff(ctx context.Context, d time.Duration) bool {
	if ctx.Err() == nil && !w.killed.Load() {
		slept := make(chan struct{})
		go func() {
			defer close(slept)
			w.cfg.Retry.Wait(d)
		}()
		select {
		case <-slept:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil && !w.killed.Load()
}

// exchange is one locked round trip: dial and hello first if the connection
// is down, then send one line and read one line. Any failure tears the
// connection down so the next attempt starts clean.
func (w *Worker) exchange(req request) (resp response, err error) {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	defer func() {
		if err != nil {
			w.teardownLocked()
		}
	}()
	if w.conn == nil {
		if w.conn, err = lineproto.Dial(w.cfg.Addr, w.cfg.RequestTimeout); err != nil {
			return response{}, fmt.Errorf("fabric: %w", err)
		}
		var hello response
		if hello, err = w.callLocked(request{Op: "hello", Worker: w.cfg.ID}); err != nil {
			return response{}, err
		}
		w.hbEvery = time.Duration(hello.HeartbeatMS) * time.Millisecond
		// The spec bytes round-trip verbatim (json.RawMessage), so hashing what
		// arrived here yields the same campaign identity the dispatcher hashed
		// from its own config — the two ends of every completion checksum.
		w.specSHAHex = specSHA(hello.Spec)
		w.gen.Store(hello.Gen)
	}
	return w.callLocked(req)
}

func (w *Worker) callLocked(req request) (response, error) {
	line, err := w.conn.CallRaw(req, w.cfg.RequestTimeout)
	if err != nil {
		return response{}, fmt.Errorf("fabric: %w", err)
	}
	resp, err := decodeResponse(line)
	if err != nil {
		return response{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("fabric: dispatcher: %s", resp.Error)
	}
	return resp, nil
}

func (w *Worker) teardownLocked() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

func (w *Worker) closeConn() {
	w.connMu.Lock()
	w.teardownLocked()
	w.connMu.Unlock()
}

func (w *Worker) sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// FetchSpec asks the dispatcher for the campaign shape (cell count and the
// opaque spec) — what a simd daemon needs before it can build its cell
// function. Retries with jittered backoff until the deadline, which bounds
// the attempts and the waits alike: a dispatcher that accepts and never
// answers costs the caller timeout, not a fixed round-trip allowance.
func FetchSpec(addr string, timeout time.Duration) (spec []byte, cells int, err error) {
	policy := retry.DefaultPolicy(idSeed(addr))
	deadline := time.Now().Add(timeout)
	for attempt := 0; ; attempt++ {
		var resp response
		// At least a millisecond: lineproto reads a zero timeout as none.
		err = callOnce(addr, min(5*time.Second, max(time.Until(deadline), time.Millisecond)), "hello", &resp)
		left := time.Until(deadline)
		if err == nil || left <= 0 {
			return resp.Spec, resp.Cells, err
		}
		policy.Wait(min(policy.Delay(attempt, 0), left))
	}
}

// callOnce is the one-shot round trip with the reply's error field checked
// before anything else: an error reply (a framing error, a verb refused) has
// none of out's fields, and decoded into out alone would pass for a zero one.
func callOnce(addr string, timeout time.Duration, op string, out any) error {
	var raw json.RawMessage
	if err := lineproto.Call(addr, timeout, request{Op: op}, &raw); err != nil {
		return err
	}
	var refused struct{ Error string }
	if json.Unmarshal(raw, &refused); refused.Error != "" {
		return fmt.Errorf("refused: %s", refused.Error)
	}
	return json.Unmarshal(raw, out)
}

// FetchDispatchHealth asks a running dispatcher for its health snapshot —
// campaign progress, generation, connections — the client side of
// `sweep -dispatch-health`. One shot, no retry: health checks should report
// an unreachable dispatcher, not paper over it.
func FetchDispatchHealth(addr string, timeout time.Duration) (DispatchHealth, error) {
	return fetchHealth[DispatchHealth](addr, timeout)
}

// FetchWorkerHealth asks a simd daemon's health address for its report — the
// client side of `simd -check-health`, so scripts can act on a fenced or
// quarantined worker via the exit code instead of parsing output. One shot,
// no retry, same as FetchDispatchHealth.
func FetchWorkerHealth(addr string, timeout time.Duration) (HealthReport, error) {
	return fetchHealth[HealthReport](addr, timeout)
}

func fetchHealth[T any](addr string, timeout time.Duration) (h T, err error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if err = callOnce(addr, timeout, "health", &h); err != nil {
		err = fmt.Errorf("fabric: health: %w", err)
	}
	return h, err
}

// atomicFloat is a lock-free float64 cell (progress reporting).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// ---- simd health verb ----

// WorkerSnapshot is one worker loop's health for the simd health verb.
type WorkerSnapshot struct {
	ID         string `json:"id"`
	Health     string `json:"health"` // ok | draining | fenced | quarantined
	CellsDone  int64  `json:"cells_done"`
	LeaseCell  int64  `json:"lease_cell"` // -1 while idle
	LeaseEpoch int64  `json:"lease_epoch"`
	// Generation is the dispatcher generation from the loop's last hello; a
	// bump mid-campaign means the dispatcher restarted and this loop
	// re-helloed into the new incarnation.
	Generation int64 `json:"generation"`
}

// HealthReport is the simd health verb's reply, mini-slurm style: a
// top-level health plus a fabric section with cells done and the current
// lease (the first active one, with every loop's detail alongside).
type HealthReport struct {
	OK     bool         `json:"ok"`
	Health string       `json:"health"` // ok | draining | fenced
	Fabric FabricHealth `json:"fabric"`
}

// FabricHealth is the fabric section of a simd health reply.
type FabricHealth struct {
	CellsDone  int64            `json:"cells_done"`
	LeaseCell  int64            `json:"lease_cell"` // -1 while idle
	LeaseEpoch int64            `json:"lease_epoch"`
	Workers    []WorkerSnapshot `json:"workers,omitempty"`
}

// AggregateHealth folds per-loop snapshots into one daemon report: draining
// dominates, then quarantined, then fenced, else ok; cells done sum; the
// current lease is the first loop's active one.
func AggregateHealth(snaps []WorkerSnapshot) HealthReport {
	rep := HealthReport{OK: true, Health: HealthOK}
	rep.Fabric.LeaseCell = -1
	for _, s := range snaps {
		rep.Fabric.CellsDone += s.CellsDone
		if rep.Fabric.LeaseCell < 0 && s.LeaseCell >= 0 {
			rep.Fabric.LeaseCell = s.LeaseCell
			rep.Fabric.LeaseEpoch = s.LeaseEpoch
		}
		if s.Health == HealthFenced && rep.Health == HealthOK {
			rep.Health = HealthFenced
		}
		if s.Health == HealthQuarantined && (rep.Health == HealthOK || rep.Health == HealthFenced) {
			rep.Health = HealthQuarantined
		}
		if s.Health == HealthDraining {
			rep.Health = HealthDraining
		}
	}
	rep.Fabric.Workers = snaps
	return rep
}

// ServeHealth answers the mini-slurm-style health verb on addr: one JSON
// request line {"op":"health"} per reply, built from snap at answer time.
// Returns the bound address and a stop function.
func ServeHealth(addr string, snap func() HealthReport) (bound string, stop func(), err error) {
	answer := func(raw []byte) (any, bool) {
		var req request
		if err := json.Unmarshal(raw, &req); err != nil || req.Op != "health" {
			return response{Error: "only the health verb is served here"}, true
		}
		return snap(), false
	}
	srv := &lineproto.Server{
		Open:         func(int64) lineproto.Handler { return answer },
		ErrorReply:   errorReply,
		ReadTimeout:  time.Minute,
		WriteTimeout: 10 * time.Second,
	}
	if bound, err = srv.Listen(addr); err != nil {
		return "", nil, fmt.Errorf("fabric: health listen: %w", err)
	}
	return bound, func() { srv.Shutdown(0) }, nil
}
