package slurm

import (
	"errors"
	"expvar"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Request robustness: deadline propagation, prioritized load shedding, and
// the brownout ladder. The token bucket and in-flight semaphore (overload.go)
// protect the server from raw request *volume*; this file protects the
// *value* of the work that does get in. Every request may carry a relative
// deadline budget — work whose client has given up is refused before it
// costs an fsync or a replication round-trip. Under sustained pressure an
// adaptive, CoDel-style signal sheds the lowest-value verb class first
// (queries before submits, control verbs never), and a hysteresis-guarded
// ladder of journaled degradations (bounded history paging → stale-snapshot
// reads → read-only) lets the controller brown out and recover instead of
// falling over.

// Verb priority classes, highest value first. Control verbs are the
// operator's steering wheel (cancel, requeue, node state, replication) and
// are never shed by the priority shedder; submits are the work the cluster
// exists for; queries are reconstructible from a retry and go first.
const (
	classControl = iota
	classSubmit
	classQuery
	numClasses
)

// className names a class for wire errors and bench output.
func className(class int) string {
	switch class {
	case classControl:
		return "control"
	case classSubmit:
		return "submit"
	}
	return "query"
}

// ErrDeadlineExceeded is returned by controller mutations whose request
// budget expired — either before any work was done, or (wrapped, see
// Controller.logB) after the entry was locally durable but before the
// synchronous replication round-trip the dead client would not have waited
// for.
var ErrDeadlineExceeded = errors.New("slurm: deadline exceeded")

// maxDeadlineMS clamps hostile wire budgets so a forged deadline_ms cannot
// overflow duration arithmetic (24h is far beyond any real request budget).
const maxDeadlineMS = int64(24 * time.Hour / time.Millisecond)

// budget is a request's remaining-time allowance, resolved against the
// server's clock at admission. The zero budget is inert: absent wire field =
// pre-deadline behavior, byte for byte.
type budget struct {
	deadline time.Time
}

// requestBudget resolves the wire field. The protocol carries a *relative*
// budget (milliseconds remaining) rather than an absolute deadline so the
// client and server clocks never need to agree. Negative budgets — only a
// hostile client sends one — resolve to already-expired, the cheapest path.
func requestBudget(deadlineMS int64, now time.Time) budget {
	if deadlineMS == 0 {
		return budget{}
	}
	if deadlineMS > maxDeadlineMS {
		deadlineMS = maxDeadlineMS
	}
	if deadlineMS < 0 {
		deadlineMS = -1
	}
	return budget{deadline: now.Add(time.Duration(deadlineMS) * time.Millisecond)}
}

func (b budget) active() bool { return !b.deadline.IsZero() }

func (b budget) expired(now time.Time) bool {
	return b.active() && !now.Before(b.deadline)
}

func (b budget) remaining(now time.Time) time.Duration {
	if !b.active() {
		return 0
	}
	return b.deadline.Sub(now)
}

// classEstimator tracks an EWMA of observed service time per verb class, the
// "estimated service time" side of deadline admission: a request whose
// remaining budget cannot cover the class estimate is refused before any
// work happens.
type classEstimator struct {
	mu   sync.Mutex
	ewma [numClasses]time.Duration
}

func (e *classEstimator) observe(class int, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.ewma[class]; cur == 0 {
		e.ewma[class] = d
	} else {
		e.ewma[class] = cur + (d-cur)/8
	}
}

func (e *classEstimator) estimate(class int) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma[class]
}

// Shedder levels: how far down the class ladder load shedding reaches.
const (
	shedNone    = 0 // everything admitted
	shedQueries = 1 // query class shed
	shedSubmits = 2 // query and submit classes shed; control always flows
)

// Shedder pacing defaults.
const (
	// DefaultShedWindow is the sustained-pressure window: the latency
	// signal must hold above target this long before the shed level climbs,
	// and below it this long before the level drops (CoDel-style interval).
	DefaultShedWindow = 100 * time.Millisecond
)

// shedder is the adaptive overload signal: an EWMA of recent service
// latency compared against a target, plus recent saturation events
// (in-flight semaphore or rate limiter refusals). Pressure sustained for a
// full window raises the shed level one class; a full quiet window lowers
// it — hysteresis in both directions so the level cannot flap on a single
// slow request.
type shedder struct {
	target time.Duration
	window time.Duration

	mu         sync.Mutex
	level      int
	lat        time.Duration // EWMA of service latency
	lastObs    time.Time     // last completion observed
	lastSat    time.Time     // last saturation event (BUSY shed)
	aboveSince time.Time
	belowSince time.Time
}

func newShedder(target, window time.Duration) *shedder {
	if window <= 0 {
		window = DefaultShedWindow
	}
	return &shedder{target: target, window: window}
}

// observe records one completed request's service time.
func (s *shedder) observe(d time.Duration, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastObs = now
	if s.lat == 0 {
		s.lat = d
	} else {
		s.lat += (d - s.lat) / 8
	}
	s.stepLocked(now)
}

// saturate records a volume shed (semaphore full, bucket empty): pressure
// even when the requests that do run are fast.
func (s *shedder) saturate(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSat = now
	s.stepLocked(now)
}

// current returns the shed level, first decaying the latency signal across
// quiet windows. The decay matters for liveness: once everything below
// control class is being shed, completions stop arriving, and without decay
// the EWMA would hold its last (high) value forever — the shedder would
// wedge itself on.
func (s *shedder) current(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lastObs.IsZero() {
		// Replay the gap window by window, stepping the hysteresis at each
		// boundary, so one call after a long idle both decays the signal and
		// walks the level down — at most one level per simulated window, the
		// same pace live traffic would get. Bounded: lat halves to zero in
		// ≤ 63 iterations and then the level drains in ≤ shedSubmits more.
		for now.Sub(s.lastObs) >= s.window {
			s.lat /= 2
			s.lastObs = s.lastObs.Add(s.window)
			s.stepLocked(s.lastObs)
			if s.lat == 0 && s.level == shedNone {
				s.lastObs = now
				break
			}
		}
	}
	s.stepLocked(now)
	return s.level
}

func (s *shedder) pressuredLocked(now time.Time) bool {
	if s.lat > s.target {
		return true
	}
	return !s.lastSat.IsZero() && now.Sub(s.lastSat) < s.window
}

// stepLocked applies the hysteresis: one level per sustained window, in
// either direction. Callers hold s.mu.
func (s *shedder) stepLocked(now time.Time) {
	if s.pressuredLocked(now) {
		s.belowSince = time.Time{}
		if s.aboveSince.IsZero() {
			s.aboveSince = now
			return
		}
		if now.Sub(s.aboveSince) >= s.window && s.level < shedSubmits {
			s.level++
			s.aboveSince = now
		}
		return
	}
	s.aboveSince = time.Time{}
	if s.belowSince.IsZero() {
		s.belowSince = now
		return
	}
	if now.Sub(s.belowSince) >= s.window && s.level > shedNone {
		s.level--
		s.belowSince = now
	}
}

// Brownout ladder levels. Each level keeps everything the previous level
// degraded and adds one more concession; control verbs work at every level.
const (
	// BrownoutNormal: full service.
	BrownoutNormal = 0
	// BrownoutPaged: history paging is clamped to BrownoutHistoryLimit even
	// for clients that asked for more — bulk sacct scans stop competing with
	// live traffic for the controller lock.
	BrownoutPaged = 1
	// BrownoutStale: queue/nodes/stats reads are served from a short-TTL
	// snapshot cache instead of locking the controller per request.
	BrownoutStale = 2
	// BrownoutReadOnly: submit-class mutations (submit, advance, drain) are
	// shed outright; reads stay stale, control verbs still land.
	BrownoutReadOnly = 3
)

// brownoutName names a ladder level for the health verb and the journal.
func brownoutName(level int) string {
	switch level {
	case BrownoutPaged:
		return "paged"
	case BrownoutStale:
		return "stale"
	case BrownoutReadOnly:
		return "readonly"
	}
	return "normal"
}

// Brownout pacing and bound defaults.
const (
	// DefaultBrownoutHistoryLimit bounds history rows per reply at
	// BrownoutPaged and above.
	DefaultBrownoutHistoryLimit = 64
	// DefaultBrownoutStaleFor is the snapshot-cache TTL at BrownoutStale
	// and above.
	DefaultBrownoutStaleFor = time.Second
)

// brownoutLadder is the hysteresis-guarded degradation state machine. It
// climbs one level after pressure sustained for a full step interval and —
// the flap guard — descends one level only after a full cooldown of quiet,
// so a single burst cannot bounce the controller between modes. Transitions
// are journaled via onStep so post-incident analysis can line degradation up
// against the operation log.
type brownoutLadder struct {
	step     time.Duration
	cooldown time.Duration
	onStep   func(level int, name string) // may be nil

	mu         sync.Mutex
	level      int
	steps      int64 // total transitions, both directions
	pressSince time.Time
	quietSince time.Time
}

func newBrownoutLadder(step, cooldown time.Duration, onStep func(int, string)) *brownoutLadder {
	if cooldown <= 0 {
		cooldown = 4 * step
	}
	return &brownoutLadder{step: step, cooldown: cooldown, onStep: onStep}
}

// observe feeds one pressure sample and returns the (possibly updated)
// level. Levels move at most one step per call, so the ladder can never
// jump modes.
func (b *brownoutLadder) observe(pressure bool, now time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pressure {
		b.quietSince = time.Time{}
		if b.pressSince.IsZero() {
			b.pressSince = now
			return b.level
		}
		if now.Sub(b.pressSince) >= b.step && b.level < BrownoutReadOnly {
			b.level++
			b.steps++
			b.pressSince = now
			if b.onStep != nil {
				b.onStep(b.level, brownoutName(b.level))
			}
		}
		return b.level
	}
	b.pressSince = time.Time{}
	if b.quietSince.IsZero() {
		b.quietSince = now
		return b.level
	}
	if now.Sub(b.quietSince) >= b.cooldown && b.level > BrownoutNormal {
		b.level--
		b.steps++
		b.quietSince = now
		if b.onStep != nil {
			b.onStep(b.level, brownoutName(b.level))
		}
	}
	return b.level
}

// current returns the level without feeding a sample.
func (b *brownoutLadder) current() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.level
}

func (b *brownoutLadder) transitions() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.steps
}

// staleCache is the BrownoutStale read path: queue, nodes, and stats replies
// are snapshotted and re-served for a short TTL, so a read storm costs one
// controller lock per TTL instead of one per request. Snapshots are replaced
// wholesale, never mutated, so pagination may safely slice them.
type staleCache struct {
	ttl time.Duration

	mu          sync.Mutex
	queueLive   []JobInfo
	queueLiveAt time.Time
	queueAll    []JobInfo
	queueAllAt  time.Time
	nodes       []NodeInfo
	nodesAt     time.Time
	stats       *metrics.Result
	statsAt     time.Time
}

func newStaleCache(ttl time.Duration) *staleCache {
	if ttl <= 0 {
		ttl = DefaultBrownoutStaleFor
	}
	return &staleCache{ttl: ttl}
}

// queue returns a fresh-enough snapshot, refreshing via refresh() when the
// TTL lapsed. served reports whether the reply came from cache.
func (sc *staleCache) queue(history bool, now time.Time, refresh func() []JobInfo) (jobs []JobInfo, served bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	jobsP, at := &sc.queueLive, &sc.queueLiveAt
	if history {
		jobsP, at = &sc.queueAll, &sc.queueAllAt
	}
	if !at.IsZero() && now.Sub(*at) < sc.ttl {
		return *jobsP, true
	}
	*jobsP, *at = refresh(), now
	return *jobsP, false
}

func (sc *staleCache) nodeList(now time.Time, refresh func() []NodeInfo) ([]NodeInfo, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.nodesAt.IsZero() && now.Sub(sc.nodesAt) < sc.ttl {
		return sc.nodes, true
	}
	sc.nodes, sc.nodesAt = refresh(), now
	return sc.nodes, false
}

func (sc *staleCache) statsResult(now time.Time, refresh func() metrics.Result) (*metrics.Result, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stats != nil && now.Sub(sc.statsAt) < sc.ttl {
		return sc.stats, true
	}
	st := refresh()
	sc.stats, sc.statsAt = &st, now
	return sc.stats, false
}

// ServeCounters is the degradation tally the health verb exposes: operators
// (and slurm-stress, and the chaos acceptance test) see shedding happen
// rather than inferring it from client-side error rates.
type ServeCounters struct {
	// Busy counts volume sheds (connection cap, rate limiter, in-flight
	// semaphore) — the pre-existing backstop.
	Busy int64 `json:"busy"`
	// Shed counts priority sheds: requests refused by shed level or by the
	// read-only brownout rung.
	Shed int64 `json:"shed"`
	// DeadlineExceeded counts requests refused because their remaining
	// budget could not cover the work (plus budget expiries detected
	// mid-mutation).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// StaleReads counts reads served from the brownout snapshot cache.
	StaleReads int64 `json:"stale_reads"`
	// BrownoutLevel and BrownoutState are the ladder's position now;
	// BrownoutSteps counts transitions in either direction since boot.
	BrownoutLevel int64  `json:"brownout_level"`
	BrownoutState string `json:"brownout_state"`
	BrownoutSteps int64  `json:"brownout_steps"`
}

// Process-wide degradation counters, mirroring the per-server tallies the
// health verb reports (same pattern as journal_sync_errors).
var (
	expBusyShed         = expvar.NewInt("slurm_busy_shed")
	expPriorityShed     = expvar.NewInt("slurm_priority_shed")
	expDeadlineExceeded = expvar.NewInt("slurm_deadline_exceeded")
	expStaleReads       = expvar.NewInt("slurm_stale_reads")
	expBrownoutSteps    = expvar.NewInt("slurm_brownout_steps")
	expClientHedges     = expvar.NewInt("slurm_client_hedges")
)

// shedResponse is the structured priority-shed reply. Busy is set too so a
// pre-deadline client treats it exactly like a volume shed (retryable with
// the same hint); new clients see Shed and can tell the difference.
func (o OverloadConfig) shedResponse(class int) Response {
	resp := o.busyResponse(0)
	resp.Shed = true
	resp.Error = fmt.Sprintf("shed: %s class shed under overload, retry after %dms",
		className(class), resp.RetryAfterMS)
	return resp
}

// deadlineResponse refuses a request whose budget is spent or unservable.
func deadlineResponse(detail string) Response {
	return Response{
		DeadlineExceeded: true,
		Error:            "deadline exceeded: " + detail,
	}
}
