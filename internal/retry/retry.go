// Package retry is the one client-side backoff policy: the mini-slurm client
// and the sweep fabric's workers both reconnect and retry on it.
package retry

import (
	"math"
	"time"

	"repro/internal/des"
)

// Policy drives a retry loop: exponential backoff with multiplicative
// jitter, capped per attempt, honoring any server-supplied retry-after hint.
// The zero value is not useful; start from DefaultPolicy.
type Policy struct {
	// MaxAttempts bounds total tries (first attempt included); when
	// exhausted, the caller returns the last error.
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (pre-jitter).
	MaxDelay time.Duration
	// Multiplier is the per-attempt growth factor (≥ 1).
	Multiplier float64
	// Jitter is the symmetric random spread as a fraction of the delay:
	// 0.2 scales each wait uniformly in [0.8, 1.2]. Jitter decorrelates
	// clients that were rejected by the same overloaded server.
	Jitter float64
	// Rand supplies uniform [0,1) variates for the jitter. Defaults to a
	// named des.RNG stream, so retry schedules are reproducible; not safe
	// for concurrent use — give each client its own policy.
	Rand func() float64
	// Sleep is the wait primitive (tests stub it out).
	Sleep func(time.Duration)
}

// DefaultPolicy returns the recommended client policy. The jitter
// stream is derived from seed via the named-RNG-stream pattern, so two
// clients with different seeds spread out while a rerun with the same seed
// reproduces the exact schedule.
func DefaultPolicy(seed uint64) *Policy {
	rng := des.NewRNG(seed).Stream("slurm/client-retry")
	return &Policy{
		MaxAttempts: 8,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Rand:        rng.Float64,
		Sleep:       time.Sleep,
	}
}

// Delay computes the wait before retry number attempt (0-based: attempt 0
// is the wait after the first failure). A server retry-after hint is a hard
// floor: the returned delay is never below it. Jitter spreads the client's
// own schedule symmetrically, but once the hint binds, only the upward half
// applies — the server said "not before then", and a jitter draw scaling
// the wait under the hint would have the client knock exactly when it was
// told the door is shut.
func (p *Policy) Delay(attempt int, retryAfter time.Duration) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	d := float64(p.BaseDelay) * math.Pow(mult, float64(attempt))
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && p.Rand != nil {
		d *= 1 - p.Jitter + 2*p.Jitter*p.Rand()
	}
	if ra := float64(retryAfter); ra > d {
		d = ra
		if p.Jitter > 0 && p.Rand != nil {
			d *= 1 + p.Jitter*p.Rand()
		}
	}
	return time.Duration(d)
}

// Wait sleeps for d through the policy's Sleep primitive.
func (p *Policy) Wait(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
	} else {
		time.Sleep(d)
	}
}
