package slurm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/retry"
)

// Failover soak harness: concurrent clients submit tokened jobs against an
// HA pair through whatever endpoints (usually chaos proxies) the caller
// wires up, a disruption is fired mid-storm, and afterwards the survivor's
// job list is audited against every acknowledged token — the zero-lost-acks
// contract. Shared by the ha tests and the slurm-ha demo command.

// FailoverSoakConfig sizes a failover storm.
type FailoverSoakConfig struct {
	// Addrs is the comma-separated endpoint list every client dials (HA
	// pair order: primary first).
	Addrs string
	// Clients and SubmitsPerClient size the storm.
	Clients          int
	SubmitsPerClient int
	// Seed roots the per-client retry-jitter RNG streams.
	Seed uint64
	// Timeout bounds each request round trip; without it a black-holed
	// primary would stall clients instead of failing them over. 0 = 250ms.
	Timeout time.Duration
	// Disrupt, if set, is called exactly once, as soon as DisruptAt submits
	// have been acknowledged (the mid-soak partition or crash).
	Disrupt   func()
	DisruptAt int
	// App, Nodes, Walltime, Runtime shape the submitted jobs (defaults:
	// minife, 1 node, 1800s wall, 900s runtime).
	App      string
	Nodes    int
	Walltime float64
	Runtime  float64
}

func (c *FailoverSoakConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.SubmitsPerClient <= 0 {
		c.SubmitsPerClient = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
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

// FailoverSoakResult is what the storm observed.
type FailoverSoakResult struct {
	// Acked maps every token whose submit was acknowledged to the job ID it
	// was acknowledged with. Only these carry the exactly-once guarantee —
	// an unacknowledged submit may legitimately exist or not.
	Acked map[string]int64
	// Failures counts submissions that exhausted their retry budget.
	Failures int
	// Retries counts backoff sleeps across all clients.
	Retries int64
	// Elapsed is the storm's wall-clock duration.
	Elapsed time.Duration
	// Errors samples the first few exhausted-retry errors.
	Errors []string
}

// RunFailoverSoak drives the storm. It only errors on harness-level
// failures; lost submissions land in the result for the caller to judge.
func RunFailoverSoak(cfg FailoverSoakConfig) (FailoverSoakResult, error) {
	cfg.defaults()
	res := FailoverSoakResult{Acked: make(map[string]int64)}
	var (
		mu       sync.Mutex
		ackCount int64
		disrupt  sync.Once
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(cfg.Addrs)
			if err != nil {
				mu.Lock()
				res.Failures += cfg.SubmitsPerClient
				if len(res.Errors) < 8 {
					res.Errors = append(res.Errors, err.Error())
				}
				mu.Unlock()
				return
			}
			defer cl.Close()
			cl.Timeout = cfg.Timeout
			rng := des.NewRNG(cfg.Seed).Stream(fmt.Sprintf("ha-soak/client/%d", i))
			cl.Retry = &retry.Policy{
				// Generous budget: a client must ride out the full window
				// between partition and promotion (about one lease) while
				// alternating endpoints.
				MaxAttempts: 60,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    200 * time.Millisecond,
				Multiplier:  2,
				Jitter:      0.3,
				Rand:        rng.Float64,
				Sleep: func(d time.Duration) {
					atomic.AddInt64(&res.Retries, 1)
					time.Sleep(d)
				},
			}
			for j := 0; j < cfg.SubmitsPerClient; j++ {
				token := fmt.Sprintf("ha-c%d-j%d", i, j)
				id, err := cl.SubmitToken(token, cfg.App, cfg.Nodes,
					des.Duration(cfg.Walltime), des.Duration(cfg.Runtime), token)
				if err != nil {
					mu.Lock()
					res.Failures++
					if len(res.Errors) < 8 {
						res.Errors = append(res.Errors, err.Error())
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				res.Acked[token] = id
				mu.Unlock()
				if cfg.Disrupt != nil && atomic.AddInt64(&ackCount, 1) == int64(cfg.DisruptAt) {
					disrupt.Do(cfg.Disrupt)
				}
			}
		}(i)
	}
	wg.Wait()
	// A tiny storm can finish before DisruptAt acks accumulate; fire late
	// rather than never so the caller's scenario still runs.
	if cfg.Disrupt != nil {
		disrupt.Do(cfg.Disrupt)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AuditExactlyOnce checks the zero-lost-acks contract against a server:
// every acknowledged token appears exactly once in the server's full job
// list (jobs are submitted with Name = token), under the ID it was
// acknowledged with. Extra unacknowledged jobs are permitted — a submit
// whose ack was lost may still have landed.
func AuditExactlyOnce(addr string, seed uint64, acked map[string]int64) error {
	cl, err := DialRetry(addr, seed^0x4a5d)
	if err != nil {
		return fmt.Errorf("audit dial: %w", err)
	}
	defer cl.Close()
	count := make(map[string]int)
	ids := make(map[string]int64)
	const page = 512
	for off := 0; ; off += page {
		jobs, total, err := cl.QueuePage(true, page, off)
		if err != nil {
			return fmt.Errorf("audit queue: %w", err)
		}
		for _, j := range jobs {
			count[j.Name]++
			ids[j.Name] = j.ID
		}
		if off+len(jobs) >= total || len(jobs) == 0 {
			break
		}
	}
	for token, id := range acked {
		switch {
		case count[token] == 0:
			return fmt.Errorf("acknowledged submit %s (job %d) lost after failover", token, id)
		case count[token] > 1:
			return fmt.Errorf("token %s present %d times (duplicate submit)", token, count[token])
		case ids[token] != id:
			return fmt.Errorf("token %s acknowledged as job %d but server has %d",
				token, id, ids[token])
		}
	}
	return nil
}
