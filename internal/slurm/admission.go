package slurm

import (
	"cmp"
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Admission: the one way in. A control plane that implements clever
// scheduling is worthless if a submission storm wedges it, so every request
// line passes one ordered pipeline (Server.serveLine → admit → handleB) and
// comes out either with a ticket or with a refusal. The stages, in order —
// the first that refuses wins and the later ones never see the request:
//
//	conn cap        MaxConns, in internal/lineproto: one BUSY, then hang up
//	class lookup    the verb table: control > submit > query (unknown = query)
//	deadline        deadline_ms on the wire: DEADLINE_EXCEEDED when the budget
//	                is spent or cannot cover the class's estimated service time
//	brownout rung   BrownoutStepAfter: ticks the ladder; SHED for the submit
//	                class at the read-only rung
//	priority shed   ShedTargetLatency: SHED, queries first, control never
//	token bucket    RateLimitPerConn, per connection: BUSY with the computed wait
//	in-flight slot  MaxInflight: BUSY (replicate is exempt, as from the bucket)
//
// `health` bypasses all of it so liveness probes answer while everything else
// is refused. The volume stages protect the server from request count; the
// deadline, shed and brownout stages protect the value of the work that does
// get in — a request whose client has given up is refused before it costs an
// fsync or a replication round trip, and under sustained pressure the ladder
// (bounded history paging → stale-snapshot reads → read-only) lets the
// controller brown out and recover instead of falling over. A refusal never
// touches the controller. Every stage is off in the zero OverloadConfig.

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
	return [numClasses]string{"control", "submit", "query"}[class]
}

// Defaults applied where OverloadConfig leaves a knob zero but the stage it
// tunes is enabled.
const (
	// DefaultRetryAfter is the hint attached to BUSY and SHED responses when
	// the rate limiter has not computed a precise wait.
	DefaultRetryAfter = 100 * time.Millisecond
	// DefaultControlCost is the token cost of a control verb relative to a
	// bulk verb's cost of 1.
	DefaultControlCost = 0.1
	// DefaultShedWindow is the sustained-pressure window: the latency signal
	// must hold above target this long before the shed level climbs, and
	// below it this long before the level drops (CoDel-style interval).
	DefaultShedWindow = 100 * time.Millisecond
	// DefaultBrownoutHistoryLimit bounds history rows per reply at
	// BrownoutPaged and above.
	DefaultBrownoutHistoryLimit = 64
	// DefaultBrownoutStaleFor is the snapshot TTL at BrownoutStale and above.
	DefaultBrownoutStaleFor = time.Second
)

// ErrDeadlineExceeded is returned by controller mutations whose request
// budget expired — either before any work was done, or (wrapped, see
// commit.wait) after the entry was locally durable but before the
// replication round trip the dead client would not have waited for.
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

// tokenBucket is a standard leaky token bucket. Not safe for concurrent
// use; each connection owns one and uses it from its serve goroutine.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket starts full; burst 0 selects max(2*rate, 1).
func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	burst = cmp.Or(burst, max(2*rate, 1))
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take refills for elapsed time and tries to spend cost tokens. On refusal
// it reports how long the caller should wait before the bucket could cover
// the cost — the retry-after hint.
func (tb *tokenBucket) take(cost float64, now time.Time) (bool, time.Duration) {
	if elapsed := now.Sub(tb.last).Seconds(); elapsed > 0 {
		tb.tokens = min(tb.tokens+elapsed*tb.rate, tb.burst)
	}
	tb.last = now
	if tb.tokens >= cost {
		tb.tokens -= cost
		return true, 0
	}
	return false, time.Duration((cost - tb.tokens) / tb.rate * float64(time.Second))
}

// hysteresis is the level machine under both the shed level and the brownout
// ladder: pressure sustained for a full `up` interval raises the level one
// step, quiet sustained for a full `down` interval lowers it one step, and a
// sample of the other kind restarts the count — so the level cannot flap on a
// single slow request or bounce between modes on one burst. Callers
// synchronise access.
type hysteresis struct {
	up, down time.Duration
	max      int

	level      int
	pressSince time.Time
	quietSince time.Time
}

// step feeds one pressure sample and returns the level and whether this
// sample moved it. Levels move at most one step per call.
func (h *hysteresis) step(pressure bool, now time.Time) (level int, moved bool) {
	since, other, hold, next := &h.pressSince, &h.quietSince, h.up, h.level+1
	if !pressure {
		since, other, hold, next = &h.quietSince, &h.pressSince, h.down, h.level-1
	}
	*other = time.Time{}
	if since.IsZero() {
		*since = now
		return h.level, false
	}
	if now.Sub(*since) < hold || next < 0 || next > h.max {
		return h.level, false
	}
	h.level, *since = next, now
	return h.level, true
}

// Shed levels: how far down the class ladder priority shedding reaches.
const (
	shedNone    = 0 // everything admitted
	shedQueries = 1 // query class shed
	shedSubmits = 2 // query and submit classes shed; control always flows
)

// loadSignal is the one load tracker every completed request feeds once: an
// EWMA of service time per verb class (deadline admission's "estimated
// service time") and, when priority shedding is on, an EWMA over all classes
// compared against the target plus recent saturation events (bucket or slot
// refusals), which drive the shed level through a hysteresis.
type loadSignal struct {
	target time.Duration // ShedTarget; 0 = shedding off, only the estimates run
	window time.Duration

	mu      sync.Mutex
	class   [numClasses]time.Duration
	lat     time.Duration // all-class EWMA; halves per idle window (see shedLevel)
	lastObs time.Time     // last completion observed
	lastSat time.Time     // last saturation event
	shed    hysteresis
}

func newLoadSignal(target, window time.Duration) *loadSignal {
	window = cmp.Or(window, DefaultShedWindow)
	return &loadSignal{target: target, window: window,
		shed: hysteresis{up: window, down: window, max: shedSubmits}}
}

// ewma folds one sample into a running average, α = 1/8.
func ewma(cur, d time.Duration) time.Duration {
	if cur == 0 {
		return d
	}
	return cur + (d-cur)/8
}

// observe records one completed request's service time.
func (l *loadSignal) observe(class int, d time.Duration, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.class[class] = ewma(l.class[class], d)
	if l.target > 0 {
		l.lat, l.lastObs = ewma(l.lat, d), now
		l.stepLocked(now)
	}
}

// estimate is the class's expected service time; 0 until one was observed.
func (l *loadSignal) estimate(class int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.class[class]
}

// saturate records a volume refusal (slot taken, bucket empty): pressure
// even when the requests that do run are fast.
func (l *loadSignal) saturate(now time.Time) {
	if l.target <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastSat = now
	l.stepLocked(now)
}

// shedLevel returns the shed level, first decaying the latency signal across
// quiet windows. The decay matters for liveness: once everything below
// control class is being shed, completions stop arriving, and without decay
// the EWMA would hold its last (high) value forever — the shedder would
// wedge itself on.
func (l *loadSignal) shedLevel(now time.Time) int {
	if l.target <= 0 {
		return shedNone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.lastObs.IsZero() {
		// Replay the gap window by window, stepping the hysteresis at each
		// boundary, so one call after a long idle both decays the signal and
		// walks the level down — at most one level per simulated window, the
		// same pace live traffic would get. Bounded: lat halves to zero in
		// ≤ 63 iterations and then the level drains in ≤ shedSubmits more.
		for now.Sub(l.lastObs) >= l.window {
			l.lat /= 2
			l.lastObs = l.lastObs.Add(l.window)
			l.stepLocked(l.lastObs)
			if l.lat == 0 && l.shed.level == shedNone {
				l.lastObs = now
				break
			}
		}
	}
	return l.stepLocked(now)
}

// stepLocked samples the pressure — latency over target, or a saturation
// event within the last window — into the shed hysteresis.
func (l *loadSignal) stepLocked(now time.Time) int {
	pressure := l.lat > l.target || (!l.lastSat.IsZero() && now.Sub(l.lastSat) < l.window)
	level, _ := l.shed.step(pressure, now)
	return level
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
	// snapshot instead of locking the controller per request.
	BrownoutStale = 2
	// BrownoutReadOnly: submit-class mutations (submit, advance, drain) are
	// shed outright; reads stay stale, control verbs still land.
	BrownoutReadOnly = 3
)

// brownoutName names a ladder level for the health verb and the journal.
func brownoutName(level int) string {
	return [...]string{"normal", "paged", "stale", "readonly"}[level]
}

// ttlSlot is one BrownoutStale snapshot: a reply payload re-served until ttl
// has passed since it was fetched, so a read storm costs one controller lock
// per TTL instead of one per request. The value is replaced wholesale, never
// mutated, so pagination may safely slice it.
type ttlSlot[T any] struct {
	mu  sync.Mutex
	val T
	at  time.Time
}

// ServeCounters is the degradation tally the health verb exposes: operators
// (and slurm-stress, and the chaos acceptance test) see shedding happen
// rather than inferring it from client-side error rates.
type ServeCounters struct {
	// Busy counts volume refusals: connection cap, rate limiter, in-flight
	// bound.
	Busy int64 `json:"busy"`
	// Shed counts priority sheds: requests refused by shed level or by the
	// read-only brownout rung.
	Shed int64 `json:"shed"`
	// DeadlineExceeded counts requests refused because their remaining
	// budget could not cover the work (plus budget expiries detected
	// mid-mutation).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// StaleReads counts reads served from a brownout snapshot.
	StaleReads int64 `json:"stale_reads"`
	// BrownoutLevel and BrownoutState are the ladder's position now;
	// BrownoutSteps counts transitions in either direction since boot.
	BrownoutLevel int64  `json:"brownout_level"`
	BrownoutState string `json:"brownout_state"`
	BrownoutSteps int64  `json:"brownout_steps"`
}

// counter indexes the degradation tallies: one per server (ServeCounters)
// and, mirroring it, one process-wide expvar (same pattern as
// journal_sync_errors).
type counter int

const (
	cntBusy counter = iota
	cntShed
	cntDeadline
	cntStale
	cntBrownoutStep
	numCounters
)

var expCounters = [numCounters]*expvar.Int{
	cntBusy:         expvar.NewInt("slurm_busy_shed"),
	cntShed:         expvar.NewInt("slurm_priority_shed"),
	cntDeadline:     expvar.NewInt("slurm_deadline_exceeded"),
	cntStale:        expvar.NewInt("slurm_stale_reads"),
	cntBrownoutStep: expvar.NewInt("slurm_brownout_steps"),
}

// count bumps one degradation counter, the server's and the process's.
func (a *admission) count(c counter) {
	a.tally[c].Add(1)
	expCounters[c].Add(1)
}

// refusal is why a request was turned away, before or (a budget that ran out
// mid-mutation) after admission. Its kind is the counter it lands in: cntBusy
// (volume: BUSY + retry-after), cntShed (priority: SHED, and BUSY too so a
// pre-shed client retries it alike) or cntDeadline (DEADLINE_EXCEEDED, not
// retryable).
type refusal struct {
	kind   counter
	class  int           // cntShed: the class shed
	wait   time.Duration // cntBusy: the limiter's computed wait; 0 selects the configured hint
	detail string        // cntDeadline: what ran out
}

// refuse counts a refusal and renders it to the wire. It is the only place a
// reply gets busy, shed or deadline_exceeded set.
func (a *admission) refuse(r refusal) Response {
	a.count(r.kind)
	if r.kind == cntDeadline {
		return Response{DeadlineExceeded: true, Error: "deadline exceeded: " + r.detail}
	}
	ms := max(cmp.Or(r.wait, a.over.RetryAfter, DefaultRetryAfter).Milliseconds(), 1)
	resp := Response{Busy: true, RetryAfterMS: ms, Error: fmt.Sprintf("busy: retry after %dms", ms)}
	if r.kind == cntShed {
		resp.Shed = true
		resp.Error = fmt.Sprintf("shed: %s class shed under overload, retry after %dms", className(r.class), ms)
	}
	return resp
}

// admission is the pipeline's state, one per Server.
type admission struct {
	over OverloadConfig
	// now is the server's clock (Server.now, injectable); onStep journals a
	// ladder transition and is called with no admission lock held.
	now    func() time.Time
	onStep func(level int, name string)

	slots chan struct{} // the in-flight bound; nil = unlimited
	load  *loadSignal   // always on: it only acts on budgets and when ShedTarget is set

	// The brownout ladder (ladder.up == 0: off) and what its rungs serve from.
	mu        sync.Mutex // guards ladder
	ladder    hysteresis
	staleFor  time.Duration
	queueLive ttlSlot[queueView]
	queueAll  ttlSlot[queueView]
	nodes     ttlSlot[[]NodeInfo]
	stats     ttlSlot[metrics.Result]

	tally [numCounters]atomic.Int64
}

func newAdmission(over OverloadConfig, now func() time.Time, onStep func(int, string)) *admission {
	a := &admission{over: over, now: now, onStep: onStep,
		load: newLoadSignal(over.ShedTarget, over.ShedWindow)}
	if over.MaxInflight > 0 {
		a.slots = make(chan struct{}, over.MaxInflight)
	}
	if over.BrownoutStep > 0 {
		a.ladder = hysteresis{up: over.BrownoutStep, max: BrownoutReadOnly,
			down: cmp.Or(over.BrownoutCooldown, 4*over.BrownoutStep)}
		a.staleFor = cmp.Or(over.BrownoutStaleFor, DefaultBrownoutStaleFor)
	}
	return a
}

// ticket is an admitted request's pass through handleB: its deadline budget,
// the brownout rung it is served at, and what done() owes.
type ticket struct {
	a      *admission
	class  int
	budget budget
	level  int
	slot   bool // holds an in-flight slot
	start  time.Time
}

// admit runs the stages in order and returns the request's ticket or the
// first refusal. bucket is the connection's (nil = no rate limit).
func (a *admission) admit(req Request, bucket *tokenBucket) (ticket, *refusal) {
	now := a.now()
	class := verbClass(req.Op)
	t := ticket{a: a, class: class, budget: requestBudget(req.DeadlineMS, now)}

	// Deadline: refuse before any work when the remaining budget cannot
	// cover this class's estimated service time — the fsync and the
	// replication round-trip are the whole point of refusing early.
	if b := t.budget; b.active() {
		if est := a.load.estimate(class); b.expired(now) || est > b.remaining(now) {
			return t, &refusal{kind: cntDeadline, detail: fmt.Sprintf("%s needs ~%dms, budget has %dms",
				req.Op, est.Milliseconds(), b.remaining(now).Milliseconds())}
		}
	}
	// Brownout: every request that gets this far feeds the ladder a pressure
	// sample. At read-only, submit-class mutations are shed outright; control
	// verbs still land (the operator's way out).
	if t.level = a.brownout(now); t.level >= BrownoutReadOnly && class == classSubmit {
		return t, &refusal{kind: cntShed, class: class}
	}
	// Priority shed: lowest class first, control never.
	if class != classControl {
		if lvl := a.load.shedLevel(now); lvl >= shedSubmits || (lvl >= shedQueries && class == classQuery) {
			return t, &refusal{kind: cntShed, class: class}
		}
	}
	// Volume backstops. A refusal here is a saturation event: pressure on
	// the shed signal even if the requests that do run are fast.
	if bucket != nil {
		if ok, wait := bucket.take(verbCost(req.Op, a.over.ControlCost), a.now()); !ok {
			a.load.saturate(now)
			return t, &refusal{kind: cntBusy, wait: wait}
		}
	}
	// replicate holds no slot, as it pays no token: one primary's one
	// stage-R sender bounds its concurrency, and a standby whose slots are
	// held by slow reads must not fail the primary's push.
	if a.slots != nil && verbs[req.Op].cost != costFree {
		select {
		case a.slots <- struct{}{}:
			t.slot = true
		default:
			a.load.saturate(now)
			return t, &refusal{kind: cntBusy}
		}
	}
	t.start = a.now()
	return t, nil
}

// done ends an admitted request: the service time feeds the load signal
// once, and the in-flight slot is released.
func (t ticket) done() {
	end := t.a.now()
	t.a.load.observe(t.class, end.Sub(t.start), end)
	if t.slot {
		<-t.a.slots
	}
}

// brownout feeds the ladder one pressure sample — is the shedder shedding? —
// and returns the rung. Admitted requests climb it under sustained pressure;
// health probes, which bypass admission, are what walk it back down after
// load stops. A transition is journaled (Controller.noteBrownout: lock,
// append, fsync) only after the ladder's lock is released, so nobody queues
// behind that fsync.
func (a *admission) brownout(now time.Time) int {
	if a.ladder.up <= 0 {
		return BrownoutNormal
	}
	pressure := a.load.shedLevel(now) > shedNone
	a.mu.Lock()
	level, moved := a.ladder.step(pressure, now)
	if moved {
		a.count(cntBrownoutStep)
	}
	a.mu.Unlock()
	if moved {
		a.onStep(level, brownoutName(level))
	}
	return level
}

// counters snapshots the degradation tallies for the health verb.
func (a *admission) counters() *ServeCounters {
	a.mu.Lock()
	level := a.ladder.level
	a.mu.Unlock()
	return &ServeCounters{
		Busy:             a.tally[cntBusy].Load(),
		Shed:             a.tally[cntShed].Load(),
		DeadlineExceeded: a.tally[cntDeadline].Load(),
		StaleReads:       a.tally[cntStale].Load(),
		BrownoutLevel:    int64(level),
		BrownoutState:    brownoutName(level),
		BrownoutSteps:    a.tally[cntBrownoutStep].Load(),
	}
}

// brownoutRead is the brownout-aware read path of a query payload: below
// BrownoutStale it fetches from the controller; at it and above it serves
// slot's snapshot — counted as a stale read — and fetches only when the TTL
// has lapsed.
func brownoutRead[T any](t ticket, slot *ttlSlot[T], fetch func() T) T {
	if t.level < BrownoutStale {
		return fetch()
	}
	now := t.a.now()
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.at.IsZero() && now.Sub(slot.at) < t.a.staleFor {
		t.a.count(cntStale)
		return slot.val
	}
	slot.val, slot.at = fetch(), now
	return slot.val
}
