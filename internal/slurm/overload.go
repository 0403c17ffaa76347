package slurm

import (
	"fmt"
	"time"
)

// Overload protection. A control plane that implements clever scheduling is
// worthless if a submission storm wedges it, so the server enforces explicit
// capacity at three levels — connections, per-connection request rate, and
// concurrent in-flight work — and sheds excess load with a structured BUSY
// response carrying a retry-after hint instead of stalling the socket.
// Verbs are classed: control-plane operations (requeue, node state changes,
// cancel) are cheap in the rate limiter so an operator can always steer a
// cluster that bulk traffic has saturated, and `health` bypasses admission
// entirely so liveness probes answer even while everything else is shed.
//
// Orthogonally, a circuit breaker watches the journal append path: when
// stable storage misbehaves (full disk, dead device) the controller trips
// into a read-only DEGRADED mode — queries still served, mutations rejected —
// instead of acknowledging writes it cannot make durable. After a cooldown
// the breaker goes half-open and lets mutations probe the journal again.

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

// Defaults applied where OverloadConfig leaves a knob zero but the feature
// it tunes is enabled.
const (
	// DefaultRetryAfter is the hint attached to BUSY responses when the
	// rate limiter cannot compute a precise wait.
	DefaultRetryAfter = 100 * time.Millisecond
	// DefaultControlCost is the token cost of a control verb relative to a
	// bulk verb's cost of 1.
	DefaultControlCost = 0.1
	// DefaultBreakerCooldown is how long a tripped breaker stays closed to
	// mutations before going half-open.
	DefaultBreakerCooldown = 5 * time.Second
)

// OverloadConfig tunes admission control and graceful degradation. The zero
// value disables every feature, which keeps the protocol and journal
// byte-compatible with earlier releases.
type OverloadConfig struct {
	// MaxConns caps concurrent client connections (0 = unlimited). A
	// connection over the cap receives one BUSY response and is closed.
	MaxConns int
	// MaxInflight bounds requests being processed at once across all
	// connections (0 = unlimited); excess requests are shed with BUSY.
	MaxInflight int
	// RateLimit is the per-connection token refill rate in requests per
	// second (0 = unlimited).
	RateLimit float64
	// RateBurst is the token bucket depth; 0 selects max(2*RateLimit, 1).
	RateBurst float64
	// ControlCost is the token cost of control verbs (requeue, node state
	// changes, cancel); bulk verbs cost 1. 0 selects DefaultControlCost.
	ControlCost float64
	// RetryAfter is the wait hint in BUSY responses where the limiter has
	// no better estimate. 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// BreakerThreshold trips the journal circuit breaker after this many
	// consecutive append failures (0 = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects mutations
	// before going half-open. 0 selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// HistoryLimit caps JobInfo rows in one Queue(history=true) reply when
	// the client does not pass an explicit limit (0 = unlimited).
	HistoryLimit int
	// ShedTarget enables the adaptive priority shedder (serve.go): when the
	// EWMA of recent service latency holds above this target for a full
	// ShedWindow, the lowest verb class still admitted is shed. 0 disables
	// priority shedding.
	ShedTarget time.Duration
	// ShedWindow is the sustained-pressure window of the shedder (and its
	// quiet window for stepping back down). 0 selects DefaultShedWindow.
	ShedWindow time.Duration
	// BrownoutStep enables the brownout ladder (serve.go): pressure
	// sustained this long climbs the ladder one level. Requires ShedTarget
	// (the ladder's pressure signal is the shedder). 0 disables the ladder.
	BrownoutStep time.Duration
	// BrownoutCooldown is the quiet period required before the ladder steps
	// back down one level. 0 selects 4×BrownoutStep.
	BrownoutCooldown time.Duration
	// BrownoutHistoryLimit caps history paging at BrownoutPaged and above.
	// 0 selects DefaultBrownoutHistoryLimit.
	BrownoutHistoryLimit int
	// BrownoutStaleFor is the snapshot-cache TTL at BrownoutStale and
	// above. 0 selects DefaultBrownoutStaleFor.
	BrownoutStaleFor time.Duration
}

// DefaultOverloadConfig returns production-shaped protection: generous
// enough for interactive tooling, finite everywhere.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		MaxConns:         256,
		MaxInflight:      64,
		RateLimit:        200,
		RateBurst:        400,
		RetryAfter:       DefaultRetryAfter,
		BreakerThreshold: 3,
		BreakerCooldown:  DefaultBreakerCooldown,
		HistoryLimit:     1024,
	}
}

// Validate checks the knobs for internal consistency.
func (o OverloadConfig) Validate() error {
	if o.MaxConns < 0 || o.MaxInflight < 0 || o.BreakerThreshold < 0 || o.HistoryLimit < 0 {
		return fmt.Errorf("slurm: negative overload limits")
	}
	if o.RateLimit < 0 || o.RateBurst < 0 || o.ControlCost < 0 {
		return fmt.Errorf("slurm: negative rate limit parameters")
	}
	if o.ControlCost > 1 {
		return fmt.Errorf("slurm: RateLimitControlCost %g > 1 would deprioritize control verbs", o.ControlCost)
	}
	if o.RetryAfter < 0 || o.BreakerCooldown < 0 {
		return fmt.Errorf("slurm: negative overload durations")
	}
	if o.ShedTarget < 0 || o.ShedWindow < 0 || o.BrownoutStep < 0 ||
		o.BrownoutCooldown < 0 || o.BrownoutStaleFor < 0 {
		return fmt.Errorf("slurm: negative shed/brownout durations")
	}
	if o.BrownoutHistoryLimit < 0 {
		return fmt.Errorf("slurm: negative BrownoutHistoryLimit")
	}
	if o.BrownoutStep > 0 && o.ShedTarget <= 0 {
		return fmt.Errorf("slurm: BrownoutStepAfter requires ShedTargetLatency (the ladder's pressure signal is the shedder)")
	}
	return nil
}

// brownoutHistoryLimit resolves the paged-brownout history cap's default.
func (o OverloadConfig) brownoutHistoryLimit() int {
	if o.BrownoutHistoryLimit > 0 {
		return o.BrownoutHistoryLimit
	}
	return DefaultBrownoutHistoryLimit
}

// retryAfter is the BUSY hint for shed work that has no limiter-computed wait.
func (o OverloadConfig) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return DefaultRetryAfter
}

// tokenBucket is a standard leaky token bucket. Not safe for concurrent
// use; each connection owns one and uses it from its serve goroutine.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst <= 0 {
		burst = 2 * rate
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take refills for elapsed time and tries to spend cost tokens. On refusal
// it reports how long the caller should wait before the bucket could cover
// the cost — the retry-after hint.
func (tb *tokenBucket) take(cost float64, now time.Time) (bool, time.Duration) {
	if elapsed := now.Sub(tb.last).Seconds(); elapsed > 0 {
		tb.tokens += elapsed * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens >= cost {
		tb.tokens -= cost
		return true, 0
	}
	wait := time.Duration((cost - tb.tokens) / tb.rate * float64(time.Second))
	return false, wait
}

// breaker is the journal circuit breaker. Callers synchronise access (the
// controller invokes it under its own mutex).
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	fails   int
	tripped bool
	until   time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
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

// BusyError is returned by Client.Do when the server sheds the request.
// The embedded hint tells the caller when a retry is worth attempting.
// Shed distinguishes a priority shed (the server chose to drop this verb
// class under overload) from a plain volume shed; both are retryable.
type BusyError struct {
	RetryAfter time.Duration
	Shed       bool
}

func (e *BusyError) Error() string {
	if e.Shed {
		return fmt.Sprintf("slurm: request shed under overload, retry after %s", e.RetryAfter)
	}
	return fmt.Sprintf("slurm: server busy, retry after %s", e.RetryAfter)
}

// busyResponse builds the structured load-shedding reply. wait <= 0 falls
// back to the configured hint.
func (o OverloadConfig) busyResponse(wait time.Duration) Response {
	if wait <= 0 {
		wait = o.retryAfter()
	}
	ms := wait.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	return Response{
		Busy:         true,
		RetryAfterMS: ms,
		Error:        fmt.Sprintf("busy: retry after %dms", ms),
	}
}
