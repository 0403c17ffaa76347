package retry

import (
	"testing"
	"time"

	"repro/internal/des"
)

// TestRetryDelaySchedule: the backoff schedule without jitter is a pure
// function of the attempt number, the growth factor, and the caps.
func TestRetryDelaySchedule(t *testing.T) {
	p := &Policy{
		BaseDelay:  10 * time.Millisecond,
		MaxDelay:   200 * time.Millisecond,
		Multiplier: 2,
	}
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 10 * time.Millisecond},
		{1, 0, 20 * time.Millisecond},
		{2, 0, 40 * time.Millisecond},
		{3, 0, 80 * time.Millisecond},
		{4, 0, 160 * time.Millisecond},
		{5, 0, 200 * time.Millisecond}, // capped at MaxDelay
		{9, 0, 200 * time.Millisecond},
		// A server retry-after hint raises the wait but never lowers it.
		{0, 50 * time.Millisecond, 50 * time.Millisecond},
		{3, 50 * time.Millisecond, 80 * time.Millisecond},
		{9, time.Second, time.Second}, // hint may exceed MaxDelay
	}
	for _, c := range cases {
		if got := p.Delay(c.attempt, c.retryAfter); got != c.want {
			t.Errorf("Delay(%d, %v) = %v, want %v", c.attempt, c.retryAfter, got, c.want)
		}
	}
}

// TestRetryDelayJitterDeterministic: with the named-RNG-stream pattern the
// jittered schedule is reproducible per seed, bounded by ±Jitter, and
// distinct across seeds.
func TestRetryDelayJitterDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		rng := des.NewRNG(seed).Stream("slurm/client-retry")
		p := &Policy{
			BaseDelay:  10 * time.Millisecond,
			MaxDelay:   time.Second,
			Multiplier: 2,
			Jitter:     0.2,
			Rand:       rng.Float64,
		}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = p.Delay(i, 0)
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a[i], b[i])
		}
		base := 10 * time.Millisecond << i
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if a[i] < lo || a[i] > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", a[i], lo, hi)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestRetryAfterIsJitterFloor: regression for the hint/jitter ordering bug.
// The old code applied the retry-after floor first and multiplied jitter in
// afterwards, so a low jitter draw scheduled the retry *before* the time the
// server said it would start accepting again. The hint must be a hard floor
// on the final, post-jitter delay for every possible draw.
func TestRetryAfterIsJitterFloor(t *testing.T) {
	hint := 100 * time.Millisecond
	for _, draw := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		p := &Policy{
			BaseDelay:  time.Millisecond,
			MaxDelay:   time.Second,
			Multiplier: 2,
			Jitter:     0.2,
			Rand:       func() float64 { return draw },
		}
		for attempt := 0; attempt < 6; attempt++ {
			if got := p.Delay(attempt, hint); got < hint {
				t.Errorf("draw %.3f attempt %d: Delay = %v, below the %v server hint",
					draw, attempt, got, hint)
			}
		}
	}
	// Once the backoff itself exceeds the hint, the client's own jittered
	// schedule governs (the floor binds, it doesn't replace).
	p := &Policy{
		BaseDelay:  400 * time.Millisecond,
		MaxDelay:   time.Second,
		Multiplier: 2,
		Jitter:     0.2,
		Rand:       func() float64 { return 0.5 }, // jitter factor exactly 1
	}
	if got := p.Delay(0, hint); got != 400*time.Millisecond {
		t.Errorf("backoff above hint: Delay = %v, want 400ms", got)
	}
}
