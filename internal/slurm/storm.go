package slurm

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/retry"
	"repro/internal/stats"
)

// Storm is the one load driver (DESIGN §8): a pool of clients issues
// tokened submits — and, open loop, a verb mix around them — against a
// listening server or HA pair, one function records what became of every
// request, and StormResult.Audit holds the server to exactly-once
// afterwards. The acceptance tests and cmd/slurm-stress share it. Only the
// arrival process varies between callers; the job shape, the verb mix, the
// retry budget, the token format and the RNG stream family are constants.
type Storm struct {
	// Addrs is the comma-separated endpoint list every client dials (an HA
	// pair: primary first).
	Addrs string
	// Seed roots every RNG stream: arrivals, verb mix, retry jitter.
	Seed uint64
	// Clients is the number of connections, and so the concurrency bound.
	Clients int
	// Submits is each client's closed-loop quota of distinct jobs (Rate == 0).
	Submits int
	// Rate, when positive, makes the storm open loop: arrivals per second
	// from a pre-committed Poisson schedule over Duration that does not slow
	// down when the server does — a closed loop backs off with the server
	// and flatters the percentiles (coordinated omission). An arrival that
	// finds every client busy is Dropped, not queued.
	Rate     float64
	Duration time.Duration
	// Timeout bounds each round trip, probes included; without it a
	// black-holed primary stalls clients instead of failing them over.
	Timeout time.Duration
	// DeadlineBudget, when positive, stamps every request with a relative
	// deadline so the server's deadline admission is exercised.
	DeadlineBudget time.Duration
	// ProbeEvery, when positive, runs a health prober on its own connection
	// at that cadence; health bypasses admission, so every probe must answer
	// while submits are being shed.
	ProbeEvery time.Duration
	// Disrupt, if set, is called exactly once, as soon as DisruptAt distinct
	// submits have been acknowledged (the mid-storm partition or crash) —
	// after the storm if it was too small to get there.
	Disrupt   func()
	DisruptAt int
}

const (
	stormApp      = "minife" // every job: one node, 1800 s wall, 900 s run
	stormWalltime = 1800
	stormRuntime  = 900
	// The open-loop mix: queries dominate (a busy cluster is mostly squeue,
	// a quarter of it sacct-shaped), submits are the goodput that matters, a
	// trickle of control verbs stands in for the operator who must not be
	// locked out.
	stormSubmitFrac  = 0.4
	stormControlFrac = 0.1
	stormHistoryFrac = 0.25
	// Every third token is submitted again once acknowledged, as a client
	// whose reply was lost would: it must resolve to the same job.
	stormReplayEvery = 3
)

// ClassStats is one verb class's outcomes and latency profile. A structured
// refusal has a latency like a success does — a fast SHED is the mechanism
// working; a transport error has none and is only counted.
type ClassStats struct {
	Sent, OK, Busy, Shed, Deadline, Errors int
	P50ms, P99ms, P999ms                   float64
}

// StormResult is what a storm observed. Overload symptoms are data, for the
// caller to judge.
type StormResult struct {
	// Acked maps every acknowledged token to the job ID it was acknowledged
	// with. Only these carry the exactly-once guarantee — an unacknowledged
	// submit may legitimately exist or not.
	Acked map[string]int64
	// Resubmits counts replays of an acknowledged token; DuplicateIDs those
	// that resolved to a different job ID — any is an idempotency bug.
	Resubmits, DuplicateIDs int
	// Failures counts submits, replays included, that ended in an error
	// (closed loop: the retry budget ran out); Errors samples the first few.
	Failures int
	Errors   []string
	// Retries counts backoff sleeps across all clients.
	Retries int64
	// Arrivals and Dropped are the open-loop schedule and the part of it
	// that found no free client.
	Arrivals, Dropped int
	Classes           [numClasses]ClassStats
	// SubmitsPerSec is the goodput: distinct acknowledged submits over Elapsed.
	SubmitsPerSec float64
	Elapsed       time.Duration
	// Probes, ProbeFailures and ProbeMax (the slowest answered one) are the
	// health prober's tally.
	Probes, ProbeFailures int
	ProbeMax              time.Duration
	// Health is the server's own view after the storm (health verb: state,
	// role, brownout rung, degradation counters); zero if it did not answer.
	Health Response
}

func (r StormResult) String() string {
	s := fmt.Sprintf("storm: %d acked (%.1f/s), %d resubmits, %d dup IDs, %d failures, %d retries, %s",
		len(r.Acked), r.SubmitsPerSec, r.Resubmits, r.DuplicateIDs, r.Failures, r.Retries, r.Elapsed)
	if r.Probes > 0 {
		s += fmt.Sprintf("\n  health: %d probes, %d failed, max %s", r.Probes, r.ProbeFailures, r.ProbeMax)
	}
	if r.Arrivals > 0 {
		s += fmt.Sprintf("\n  open loop: %d arrivals, %d dropped", r.Arrivals, r.Dropped)
	}
	for class, c := range r.Classes {
		if c.Sent > 0 {
			s += fmt.Sprintf("\n  %-7s sent %5d  ok %5d  busy %4d  shed %4d  ddl %4d  err %4d  p50 %6.1fms  p99 %6.1fms  p999 %6.1fms",
				className(class), c.Sent, c.OK, c.Busy, c.Shed, c.Deadline, c.Errors, c.P50ms, c.P99ms, c.P999ms)
		}
	}
	if v := r.Health.Serve; v != nil {
		s += fmt.Sprintf("\n  server: busy %d shed %d deadline %d stale %d brownout %s (steps %d)",
			v.Busy, v.Shed, v.DeadlineExceeded, v.StaleReads, v.BrownoutState, v.BrownoutSteps)
	}
	return s
}

// storm is one run's state. mu guards res, lats and fired — but for
// res.Arrivals and res.Dropped, which only the open-loop scheduler touches.
type storm struct {
	Storm
	retries atomic.Int64
	mu      sync.Mutex
	res     StormResult
	lats    [numClasses][]float64
	fired   bool
}

// Run drives the storm and returns what it saw. It errors only when the
// harness itself cannot start.
func (cfg Storm) Run() (StormResult, error) {
	if cfg.Clients < 1 || (cfg.Rate > 0 && cfg.Duration <= 0) || (cfg.Rate <= 0 && cfg.Submits < 1) {
		return StormResult{}, fmt.Errorf("storm: need clients and either submits or rate and duration: %+v", cfg)
	}
	s := &storm{Storm: cfg}
	s.res.Acked = make(map[string]int64)
	// The prober is one-shot: a retried probe would hide the failure it is
	// there to count. Open-loop clients are too: the storm measures raw
	// per-request outcomes, and a retry inside the harness would book its
	// latency to the wrong request.
	prober, err := s.dial("probe", false)
	if err != nil {
		return s.res, err
	}
	defer prober.Close()
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		if clients[i], err = s.dial("client/"+strconv.Itoa(i), cfg.Rate <= 0); err != nil {
			return s.res, err
		}
		defer clients[i].Close()
	}

	stop, probed := make(chan struct{}), make(chan struct{})
	go s.probe(prober, stop, probed)
	start := time.Now()
	if cfg.Rate > 0 {
		s.openLoop(clients, start)
	} else {
		s.closedLoop(clients)
	}
	s.res.Elapsed = time.Since(start)
	close(stop)
	<-probed
	if cfg.Disrupt != nil && !s.fired {
		cfg.Disrupt() // late rather than never: the caller's scenario still runs
	}

	s.res.Retries = s.retries.Load()
	s.res.SubmitsPerSec = float64(len(s.res.Acked)) / s.res.Elapsed.Seconds()
	for class, lats := range s.lats {
		if len(lats) > 0 {
			c := &s.res.Classes[class]
			c.P50ms, c.P99ms, c.P999ms = stats.Percentile(lats, 50), stats.Percentile(lats, 99), stats.Percentile(lats, 99.9)
		}
	}
	if hr, err := prober.HealthFull(); err == nil {
		s.res.Health = hr
	}
	return s.res, nil
}

// dial builds one client. The retry budget is the failover's: a client must
// ride out the window between partition and promotion (about one lease)
// while alternating endpoints.
func (s *storm) dial(stream string, retries bool) (*Client, error) {
	cl, err := Dial(s.Addrs)
	if err != nil {
		return nil, fmt.Errorf("storm: dial %s: %w", stream, err)
	}
	cl.Timeout, cl.DeadlineBudget = s.Timeout, s.DeadlineBudget
	if retries {
		cl.Retry = &retry.Policy{
			MaxAttempts: 60,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.3,
			Rand:        des.NewRNG(s.Seed).Stream("storm/" + stream).Float64,
			Sleep: func(d time.Duration) {
				s.retries.Add(1)
				time.Sleep(d)
			},
		}
	}
	return cl, nil
}

// do issues one request and records everything the storm knows about it:
// class, outcome and latency, and for a submit the acknowledged token or
// the replay's verdict. It fires Disrupt, and reports whether the request
// succeeded.
func (s *storm) do(cl *Client, req Request) bool {
	t0 := time.Now()
	resp, err := cl.Do(req)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)

	s.mu.Lock()
	class := verbClass(req.Op)
	c := &s.res.Classes[class]
	c.Sent++
	timed := true
	switch e := err.(type) {
	case nil:
		c.OK++
	case *BusyError:
		if e.Shed {
			c.Shed++
		} else {
			c.Busy++
		}
	case *DeadlineError:
		c.Deadline++
	default:
		c.Errors++
		timed = false
	}
	if timed {
		s.lats[class] = append(s.lats[class], ms)
	}
	fire := false
	if req.Op == "submit" {
		id, replay := s.res.Acked[req.Token]
		if replay {
			s.res.Resubmits++
		}
		switch {
		case err != nil:
			s.res.Failures++
			if len(s.res.Errors) < 8 {
				s.res.Errors = append(s.res.Errors, err.Error())
			}
		case replay && resp.ID != id:
			s.res.DuplicateIDs++
		case !replay:
			s.res.Acked[req.Token] = resp.ID
			fire = s.Disrupt != nil && len(s.res.Acked) == s.DisruptAt
			s.fired = s.fired || fire
		}
	}
	s.mu.Unlock()
	if fire {
		s.Disrupt()
	}
	return err == nil
}

// submit issues the storm's n-th job under its token (jobs are named after
// their token, which is what Audit matches on), and replays every third.
func (s *storm) submit(cl *Client, n int) {
	token := fmt.Sprintf("storm-%d-%d", s.Seed, n)
	req := Request{Op: "submit", App: stormApp, Nodes: 1, Walltime: stormWalltime,
		Runtime: stormRuntime, Name: token, Token: token}
	if s.do(cl, req) && n%stormReplayEvery == 0 {
		s.do(cl, req)
	}
}

// closedLoop: every client works through its quota, one request at a time.
func (s *storm) closedLoop(clients []*Client) {
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < s.Submits; j++ {
				s.submit(cl, i*s.Submits+j)
			}
		}()
	}
	wg.Wait()
}

// openLoop: arrival times are a pre-committed schedule. Sleeping per gap
// would cap the rate at the sleep granularity, so the loop sleeps only when
// ahead of schedule and bursts to catch up when behind — the offered rate
// is honoured whatever the server's speed.
func (s *storm) openLoop(clients []*Client, start time.Time) {
	pool := make(chan *Client, len(clients))
	for _, cl := range clients {
		pool <- cl
	}
	root := des.NewRNG(s.Seed)
	arrive, mix := root.Stream("storm/arrivals"), root.Stream("storm/mix")
	var wg sync.WaitGroup
	submits := 0
	for next, end := start, start.Add(s.Duration); ; {
		next = next.Add(time.Duration(arrive.Exp(1/s.Rate) * float64(time.Second)))
		if next.After(end) {
			break
		}
		time.Sleep(time.Until(next))
		var issue func(*Client)
		switch u := mix.Float64(); {
		case u < stormSubmitFrac:
			n := submits
			submits++
			issue = func(cl *Client) { s.submit(cl, n) }
		case u < stormSubmitFrac+stormControlFrac:
			// config is read-only, classed control and always valid: the
			// operator's "is anyone home".
			issue = func(cl *Client) { s.do(cl, Request{Op: "config"}) }
		default:
			req := Request{Op: "queue", History: mix.Float64() < stormHistoryFrac}
			issue = func(cl *Client) { s.do(cl, req) }
		}
		s.res.Arrivals++
		select {
		case cl := <-pool:
			wg.Add(1)
			go func() {
				defer wg.Done()
				issue(cl)
				pool <- cl
			}()
		default:
			// Abandoned, not queued — what a latency-sensitive client does.
			s.res.Dropped++
		}
	}
	wg.Wait()
}

// probe runs the health prober until stop closes.
func (s *storm) probe(cl *Client, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if s.ProbeEvery <= 0 {
		return
	}
	tick := time.NewTicker(s.ProbeEvery)
	defer tick.Stop()
	for {
		t0 := time.Now()
		h, err := cl.Health()
		lat := time.Since(t0)
		s.mu.Lock()
		s.res.Probes++
		if err != nil || h == "" {
			s.res.ProbeFailures++
		} else if lat > s.res.ProbeMax {
			s.res.ProbeMax = lat
		}
		s.mu.Unlock()
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// Audit checks the zero-lost-acks contract against a server: every
// acknowledged token names exactly one job in the server's full list, under
// the ID it was acknowledged with. It returns the number of other jobs
// there — permitted after a failover or a dropped reply (a submit whose ack
// was lost may still have landed), a leak or a duplicate where every submit
// was acknowledged.
func (r StormResult) Audit(addr string, seed uint64) (extras int, err error) {
	cl, err := DialRetry(addr, seed^0x4a5d)
	if err != nil {
		return 0, fmt.Errorf("audit dial: %w", err)
	}
	defer cl.Close()
	count := make(map[string]int)
	ids := make(map[string]int64)
	// Advance by what the server returned, not by what was asked for: a
	// browned-out server clamps even an explicit limit.
	for off, total := 0, 1; off < total; {
		jobs, n, err := cl.QueuePage(true, 512, off)
		if err != nil {
			return 0, fmt.Errorf("audit queue: %w", err)
		}
		if len(jobs) == 0 {
			break
		}
		for _, j := range jobs {
			count[j.Name]++
			ids[j.Name] = j.ID
		}
		off, total = off+len(jobs), n
		extras += len(jobs)
	}
	for token, id := range r.Acked {
		switch {
		case count[token] == 0:
			return 0, fmt.Errorf("acknowledged submit %s (job %d) lost", token, id)
		case count[token] > 1:
			return 0, fmt.Errorf("token %s present %d times (duplicate submit)", token, count[token])
		case ids[token] != id:
			return 0, fmt.Errorf("token %s acknowledged as job %d but server has %d", token, id, ids[token])
		}
	}
	return extras - len(r.Acked), nil
}
