package slurm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/retry"
)

// Soak harness: many concurrent clients hammering an undersized server to
// prove the overload story end to end — submissions all land exactly once
// despite shedding and retries, and health probes answer throughout. The
// harness is a library so the `-race` soak test and the slurm-stress
// command share one implementation.

// SoakConfig sizes a soak run against an already-listening server.
type SoakConfig struct {
	// Addr is the server under load.
	Addr string
	// Clients is the number of concurrent submitting clients.
	Clients int
	// SubmitsPerClient is how many distinct jobs each client submits.
	SubmitsPerClient int
	// Seed roots the per-client retry-jitter RNG streams.
	Seed uint64
	// HealthInterval spaces liveness probes (0 = 10ms).
	HealthInterval time.Duration
	// HealthDeadline is the per-probe response deadline (0 = 1s).
	HealthDeadline time.Duration
	// App, Nodes, Walltime and Runtime shape the submitted jobs
	// (defaults: minife, 1 node, 1800s wall, 900s runtime).
	App      string
	Nodes    int
	Walltime float64
	Runtime  float64
}

func (c *SoakConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.SubmitsPerClient <= 0 {
		c.SubmitsPerClient = 8
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 10 * time.Millisecond
	}
	if c.HealthDeadline <= 0 {
		c.HealthDeadline = time.Second
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

// SoakResult is what a run observed.
type SoakResult struct {
	// Submitted counts distinct tokens acknowledged with a job ID.
	Submitted int
	// Resubmits counts deliberate duplicate submissions of an
	// already-acknowledged token (simulating a client whose response was
	// lost and retried).
	Resubmits int
	// DuplicateIDs counts tokens that ever resolved to two different job
	// IDs — any non-zero value is an idempotency bug.
	DuplicateIDs int
	// Retries counts backoff sleeps across all clients (shed or failed
	// requests that were retried). A soak that exercises overload should
	// observe many.
	Retries int64
	// SubmitFailures counts submissions that exhausted their retry budget.
	SubmitFailures int
	// HealthProbes / HealthFailures count liveness probes and the ones
	// that missed their deadline or errored.
	HealthProbes   int
	HealthFailures int
	// HealthMaxLatency is the slowest successful probe.
	HealthMaxLatency time.Duration
	// ServerJobs is the server's total job count (queue + history) after
	// the storm; it must equal Submitted if nothing duplicated or leaked.
	ServerJobs int
	// Elapsed is the wall-clock duration of the storm.
	Elapsed time.Duration
	// Errors samples the first few unexpected errors.
	Errors []string
}

// Ok reports whether the run satisfied the soak invariants: every submit
// acknowledged exactly once, no duplicates server-side, every health probe
// answered.
func (r SoakResult) Ok(expectSubmits int) error {
	switch {
	case r.DuplicateIDs > 0:
		return fmt.Errorf("soak: %d tokens resolved to multiple job IDs", r.DuplicateIDs)
	case r.SubmitFailures > 0:
		return fmt.Errorf("soak: %d submissions exhausted retries", r.SubmitFailures)
	case r.Submitted != expectSubmits:
		return fmt.Errorf("soak: submitted %d, want %d", r.Submitted, expectSubmits)
	case r.ServerJobs != expectSubmits:
		return fmt.Errorf("soak: server holds %d jobs, want %d (duplicate or lost submits)",
			r.ServerJobs, expectSubmits)
	case r.HealthFailures > 0:
		return fmt.Errorf("soak: %d/%d health probes failed", r.HealthFailures, r.HealthProbes)
	case r.HealthProbes == 0:
		return fmt.Errorf("soak: no health probes ran")
	}
	return nil
}

func (r SoakResult) String() string {
	return fmt.Sprintf(
		"soak: %d submits (%d resubmits, %d dup IDs, %d retries, %d failures), "+
			"server jobs %d, health %d probes (%d failed, max %s), elapsed %s",
		r.Submitted, r.Resubmits, r.DuplicateIDs, r.Retries, r.SubmitFailures,
		r.ServerJobs, r.HealthProbes, r.HealthFailures, r.HealthMaxLatency, r.Elapsed)
}

// RunSoak drives the storm and returns what it saw. It only errors on
// harness-level failures (cannot reach the server at all); overload
// symptoms land in the result for the caller to judge via Ok.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	cfg.defaults()
	var (
		mu     sync.Mutex
		res    SoakResult
		tokens = make(map[string]int64)
	)
	addErr := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if len(res.Errors) < 8 {
			res.Errors = append(res.Errors, err.Error())
		}
	}

	// Health prober: its own connection, probing on a fixed cadence with a
	// hard per-probe deadline. health bypasses server admission control,
	// so every probe must answer even while submissions are being shed.
	stopHealth := make(chan struct{})
	healthDone := make(chan struct{})
	probe, err := Dial(cfg.Addr)
	if err != nil {
		return res, fmt.Errorf("soak: health dial: %w", err)
	}
	probe.Timeout = cfg.HealthDeadline
	go func() {
		defer close(healthDone)
		defer probe.Close()
		tick := time.NewTicker(cfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopHealth:
				return
			case <-tick.C:
			}
			start := time.Now()
			h, err := probe.Health()
			lat := time.Since(start)
			mu.Lock()
			res.HealthProbes++
			if err != nil || h == "" {
				res.HealthFailures++
			} else if lat > res.HealthMaxLatency {
				res.HealthMaxLatency = lat
			}
			mu.Unlock()
			if err != nil {
				return // connection is dead; stop probing
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(cfg.Addr)
			if err != nil {
				addErr(err)
				mu.Lock()
				res.SubmitFailures += cfg.SubmitsPerClient
				mu.Unlock()
				return
			}
			defer cl.Close()
			rng := des.NewRNG(cfg.Seed).Stream(fmt.Sprintf("soak/client/%d", i))
			cl.Retry = &retry.Policy{
				MaxAttempts: 24,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Multiplier:  2,
				Jitter:      0.3,
				Rand:        rng.Float64,
				Sleep: func(d time.Duration) {
					atomic.AddInt64(&res.Retries, 1)
					time.Sleep(d)
				},
			}
			for j := 0; j < cfg.SubmitsPerClient; j++ {
				token := fmt.Sprintf("c%d-j%d", i, j)
				id, err := cl.SubmitToken(token, cfg.App, cfg.Nodes,
					des.Duration(cfg.Walltime), des.Duration(cfg.Runtime), token)
				if err != nil {
					addErr(err)
					mu.Lock()
					res.SubmitFailures++
					mu.Unlock()
					continue
				}
				mu.Lock()
				res.Submitted++
				tokens[token] = id
				mu.Unlock()
				// Every third job, replay the submit as a client whose
				// response was lost would: same token, must dedupe to the
				// same job ID.
				if j%3 == 0 {
					again, err := cl.SubmitToken(token, cfg.App, cfg.Nodes,
						des.Duration(cfg.Walltime), des.Duration(cfg.Runtime), token)
					mu.Lock()
					res.Resubmits++
					if err != nil {
						res.SubmitFailures++
					} else if again != id {
						res.DuplicateIDs++
					}
					mu.Unlock()
					if err != nil {
						addErr(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	close(stopHealth)
	<-healthDone

	// Audit the server's view: queue + history row count must equal the
	// distinct tokens acknowledged — no duplicates, nothing lost.
	audit, err := DialRetry(cfg.Addr, cfg.Seed^0xa0d17)
	if err != nil {
		return res, fmt.Errorf("soak: audit dial: %w", err)
	}
	defer audit.Close()
	_, total, err := audit.QueuePage(true, 1, 0)
	if err != nil {
		return res, fmt.Errorf("soak: audit queue: %w", err)
	}
	res.ServerJobs = total
	return res, nil
}
