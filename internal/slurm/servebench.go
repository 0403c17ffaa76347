package slurm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/stats"
)

// Open-loop load harness: arrivals come from a deterministic Poisson process
// that does not slow down when the server does, which is the only honest way
// to measure tail latency under overload — a closed-loop driver backs off
// with the server and flatters the percentiles (coordinated omission). The
// harness is a library, like soak.go; TestServeChaosAcceptance drives it.

// Verb mixes are drawn per-arrival from the seed's RNG: queries dominate (a
// busy cluster is mostly squeue), submits are the goodput that matters, and
// a trickle of control verbs stands in for the operator who must not be
// locked out.

// BenchConfig sizes an open-loop bench run against a listening server.
type BenchConfig struct {
	// Addr is the server (or chaos proxy in front of it) under load.
	Addr string
	// Seed roots every RNG stream: arrival times, verb mix, retry jitter.
	Seed uint64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Rate is the offered load in arrivals per second (open loop).
	Rate float64
	// Conns is the client connection pool size; it bounds concurrency, so
	// an arrival that finds every connection busy is counted as Dropped
	// rather than queued (open-loop semantics).
	Conns int
	// SubmitFrac and ControlFrac shape the verb mix; the remainder is
	// queries. Defaults 0.4 / 0.1.
	SubmitFrac  float64
	ControlFrac float64
	// DeadlineBudget, when positive, stamps every request with a relative
	// deadline so the server's deadline admission is exercised.
	DeadlineBudget time.Duration
	// HedgeDelay, when positive, enables client hedging for read verbs.
	HedgeDelay time.Duration
	// Timeout bounds each round trip (0 = 2s).
	Timeout time.Duration
	// App/Nodes/Walltime/Runtime shape submitted jobs (defaults as soak).
	App      string
	Nodes    int
	Walltime float64
	Runtime  float64
}

func (c *BenchConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Rate <= 0 {
		c.Rate = 200
	}
	if c.Conns <= 0 {
		c.Conns = 16
	}
	if c.SubmitFrac <= 0 {
		c.SubmitFrac = 0.4
	}
	if c.ControlFrac <= 0 {
		c.ControlFrac = 0.1
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.App == "" {
		c.App = "minife"
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Walltime <= 0 {
		c.Walltime = 1800
	}
	if c.Runtime <= 0 {
		c.Runtime = 900
	}
}

// ClassStats is one verb class's outcome and latency profile. Latencies are
// measured per request (a successful round trip or a structured rejection
// both count — a fast SHED is the mechanism working, and its latency is part
// of the server's responsiveness story). Transport errors have no meaningful
// latency and are only counted.
type ClassStats struct {
	Class    string  `json:"class"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Busy     int     `json:"busy"`
	Shed     int     `json:"shed"`
	Deadline int     `json:"deadline"`
	Errors   int     `json:"errors"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	P999ms   float64 `json:"p999_ms"`
}

// BenchResult is one run's report.
type BenchResult struct {
	Schema        string         `json:"schema"`
	Seed          uint64         `json:"seed"`
	OfferedRate   float64        `json:"offered_rate"`
	DurationSec   float64        `json:"duration_sec"`
	Arrivals      int            `json:"arrivals"`
	Dropped       int            `json:"dropped"` // arrivals with no free connection
	SubmitsPerSec float64        `json:"submits_per_sec"`
	Classes       []ClassStats   `json:"classes"`
	Serve         *ServeCounters `json:"serve,omitempty"` // server's own view, via health
	Health        string         `json:"health,omitempty"`
	Brownout      string         `json:"brownout,omitempty"`
}

func (r BenchResult) String() string {
	s := fmt.Sprintf("bench: %d arrivals at %.0f/s over %.1fs, %d dropped, %.1f submits/s",
		r.Arrivals, r.OfferedRate, r.DurationSec, r.Dropped, r.SubmitsPerSec)
	for _, c := range r.Classes {
		s += fmt.Sprintf("\n  %-7s sent %5d  ok %5d  busy %4d  shed %4d  ddl %4d  err %4d  p50 %6.1fms  p99 %6.1fms  p999 %6.1fms",
			c.Class, c.Sent, c.OK, c.Busy, c.Shed, c.Deadline, c.Errors, c.P50ms, c.P99ms, c.P999ms)
	}
	if r.Serve != nil {
		s += fmt.Sprintf("\n  server: busy %d shed %d deadline %d stale %d brownout %s (steps %d)",
			r.Serve.Busy, r.Serve.Shed, r.Serve.DeadlineExceeded, r.Serve.StaleReads,
			r.Serve.BrownoutState, r.Serve.BrownoutSteps)
	}
	return s
}

// benchSample is one completed request's classification.
type benchSample struct {
	class   int
	latency time.Duration
	outcome int // 0 ok, 1 busy, 2 shed, 3 deadline, 4 error
}

// RunBench drives the open-loop storm and aggregates per-class percentiles.
// It errors only on harness-level failures; every overload symptom is data.
func RunBench(cfg BenchConfig) (BenchResult, error) {
	cfg.defaults()
	res := BenchResult{Schema: "slurm-bench/v1", Seed: cfg.Seed, OfferedRate: cfg.Rate}

	// Connection pool. Each client is one-shot (Retry nil): the bench
	// measures raw per-request outcomes, and retrying inside the harness
	// would double-count latency that belongs to the client's own policy.
	pool := make(chan *Client, cfg.Conns)
	for i := 0; i < cfg.Conns; i++ {
		cl, err := Dial(cfg.Addr)
		if err != nil {
			return res, fmt.Errorf("bench: dial %d: %w", i, err)
		}
		cl.Timeout = cfg.Timeout
		cl.DeadlineBudget = cfg.DeadlineBudget
		if cfg.HedgeDelay > 0 {
			cl.Hedge = &HedgePolicy{Delay: cfg.HedgeDelay}
		}
		pool <- cl
	}
	defer func() {
		for i := 0; i < cfg.Conns; i++ {
			(<-pool).Close()
		}
	}()

	root := des.NewRNG(cfg.Seed)
	arrive := root.Stream("bench/arrivals")
	mix := root.Stream("bench/mix")

	var (
		mu      sync.Mutex
		samples []benchSample
		wg      sync.WaitGroup
	)
	record := func(s benchSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	start := time.Now()
	end := start.Add(cfg.Duration)
	submitSeq := 0
	// Open-loop pacing: arrival times are a pre-committed schedule. Sleeping
	// per-gap would silently cap the rate at the sleep granularity, so the
	// loop sleeps only when ahead of schedule and bursts to catch up when
	// behind — the offered rate is honored regardless of server speed.
	next := start
	for {
		next = next.Add(time.Duration(arrive.Exp(1/cfg.Rate) * float64(time.Second)))
		if next.After(end) {
			break
		}
		if ahead := time.Until(next); ahead > 0 {
			time.Sleep(ahead)
		}
		res.Arrivals++

		class := classQuery
		switch u := mix.Float64(); {
		case u < cfg.SubmitFrac:
			class = classSubmit
		case u < cfg.SubmitFrac+cfg.ControlFrac:
			class = classControl
		}
		var req Request
		switch class {
		case classSubmit:
			submitSeq++
			req = Request{Op: "submit", App: cfg.App, Nodes: cfg.Nodes,
				Walltime: cfg.Walltime, Runtime: cfg.Runtime,
				Name:  fmt.Sprintf("bench-%d", submitSeq),
				Token: fmt.Sprintf("bench-%d-%d", cfg.Seed, submitSeq)}
		case classControl:
			// config is read-only, classed control, and always valid —
			// the operator's "is anyone home" request.
			req = Request{Op: "config"}
		default:
			req = Request{Op: "queue", History: mix.Float64() < 0.25}
		}

		select {
		case cl := <-pool:
			wg.Add(1)
			go func(cl *Client, class int, req Request) {
				defer wg.Done()
				defer func() { pool <- cl }()
				t0 := time.Now()
				_, err := cl.Do(req)
				lat := time.Since(t0)
				s := benchSample{class: class, latency: lat}
				switch e := err.(type) {
				case nil:
					s.outcome = 0
				case *BusyError:
					s.outcome = 1
					if e.Shed {
						s.outcome = 2
					}
				case *DeadlineError:
					s.outcome = 3
				default:
					s.outcome = 4
					// The transport is suspect; drop it so the next use
					// redials lazily.
					if isTransportError(err) {
						cl.Close()
					}
				}
				record(s)
			}(cl, class, req)
		default:
			// Every connection busy: in an open-loop world this request is
			// abandoned, not queued — exactly what a latency-sensitive
			// client would do.
			res.Dropped++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	res.DurationSec = elapsed.Seconds()

	// Aggregate per class.
	okSubmits := 0
	for class := 0; class < numClasses; class++ {
		cs := ClassStats{Class: className(class)}
		var lats []float64
		for _, s := range samples {
			if s.class != class {
				continue
			}
			cs.Sent++
			switch s.outcome {
			case 0:
				cs.OK++
			case 1:
				cs.Busy++
			case 2:
				cs.Shed++
			case 3:
				cs.Deadline++
			default:
				cs.Errors++
			}
			if s.outcome != 4 {
				lats = append(lats, float64(s.latency)/float64(time.Millisecond))
			}
		}
		if class == classSubmit {
			okSubmits = cs.OK
		}
		if len(lats) > 0 {
			cs.P50ms = stats.Percentile(lats, 50)
			cs.P95ms = stats.Percentile(lats, 95)
			cs.P99ms = stats.Percentile(lats, 99)
			cs.P999ms = stats.Percentile(lats, 99.9)
		}
		res.Classes = append(res.Classes, cs)
	}
	if elapsed > 0 {
		res.SubmitsPerSec = float64(okSubmits) / elapsed.Seconds()
	}

	// The server's own counters, via the health verb (bypasses admission,
	// so it answers even if the storm left the server browned out).
	if probe, err := Dial(cfg.Addr); err == nil {
		probe.Timeout = cfg.Timeout
		if hr, err := probe.HealthFull(); err == nil {
			res.Health = hr.Health
			res.Brownout = hr.Brownout
			res.Serve = hr.Serve
		}
		probe.Close()
	}
	return res, nil
}
