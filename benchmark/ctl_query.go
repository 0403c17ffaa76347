package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/des"
	"repro/internal/slurm"
	"repro/internal/stats"
)

// queryLoad is the open loop against one journaled controller: mostly reads,
// arriving on a fixed schedule at three rates, beside trace-replay submits
// that hold the controller's lock across their fsyncs.
type queryLoad struct{}

// The ladder: offered rates in operations per second, and the share of the
// run's measuring time each step gets. Every gated latency comes from the
// first step, so it gets the most samples; the other two say how far the next
// step is. All three always run.
var (
	ladderRates  = []float64{200, 400, 800}
	ladderShares = []float64{0.7, 0.15, 0.15}
)

// Latency limits a step must meet to count for max_rate_ok.
const (
	readP95LimitMS   = 100.0
	submitP95LimitMS = 150.0
)

const preloadJobs = 3000

// opMix is the traffic mix: 80 % reads, 15 % submits, 5 % config.
var opMix = []struct {
	kind   string
	weight float64
}{
	{"queue", 40}, {"queue_history", 20}, {"nodes", 12}, {"stats", 8}, {"submit", 15}, {"config", 5},
}

var readKinds = map[string]bool{"queue": true, "queue_history": true, "nodes": true, "stats": true}

type queryInstance struct {
	cfg     *runConfig
	tmp     string
	node    *ctlNode
	callers []*caller
	preload int
	rng     *des.RNG
	replay  *replay
}

func (queryLoad) setUp(cfg *runConfig, res *result, traced bool) (instance, error) {
	preload := preloadJobs
	if cfg.short {
		preload = 150
	}
	q := &queryInstance{cfg: cfg, preload: preload, rng: des.NewRNG(cfg.seed).Stream("ctl_query_mixed")}
	ok := false
	defer func() {
		if !ok {
			q.close()
		}
	}()
	var err error
	// Enough trace for the preload plus the ladder's submits at any speed the
	// run could plausibly reach.
	if q.replay, err = newReplay(cfg.seed, preload+20000); err != nil {
		return nil, err
	}
	if q.tmp, err = os.MkdirTemp(cfg.outDir, "query-"); err != nil {
		return nil, err
	}
	// Preload with the disk model off and nothing synced: the history the
	// reads will page through is bulk-loaded state, not measured traffic.
	if q.node, err = startNode(q.tmp, syncSkip); err != nil {
		return nil, err
	}
	var direct []float64
	for q.replay.submitted() < preload {
		op, _ := q.replay.nextOp()
		if op.job == nil {
			if _, err := q.node.ctl.AdvanceChecked(op.advance); err != nil {
				return nil, fmt.Errorf("preload advance: %w", err)
			}
			continue
		}
		start := time.Now()
		_, err := q.node.ctl.SubmitToken(op.token(), op.job.App.Name, op.job.Nodes,
			op.job.ReqWalltime, op.job.TrueRuntime, op.token())
		direct = append(direct, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, fmt.Errorf("preload submit: %w", err)
		}
	}
	res.set("slurm.direct_submit_us", stats.Median(direct))
	q.node.fs.mode.Store(syncModel)

	for i := 0; i < cfg.threads; i++ {
		c, err := dialCaller(q.node.addr, nil, 0)
		if err != nil {
			return nil, err
		}
		q.callers = append(q.callers, c)
	}
	ok = true
	return q, nil
}

func (q *queryInstance) close() {
	for _, c := range q.callers {
		c.cl.Close()
	}
	if q.node != nil {
		_ = q.node.stop() // already stopped after a completed run; the error was reported there
	}
	if q.tmp != "" {
		os.RemoveAll(q.tmp)
	}
}

// schedule pre-commits one step: Poisson arrivals at rate over d, each with
// its kind drawn from the mix. A submit takes the next job of the trace, and
// the advance the replay wants in front of it becomes its own operation, due
// at the same instant.
func (q *queryInstance) schedule(rate float64, d time.Duration) ([]dueOp, error) {
	weights := make([]float64, len(opMix))
	for i, m := range opMix {
		weights[i] = m.weight
	}
	arrivals := q.rng.Stream(fmt.Sprintf("arrivals-%g", rate))
	kinds := q.rng.Stream(fmt.Sprintf("kinds-%g", rate))
	var ops []dueOp
	for _, a := range poissonSchedule(arrivals, rate, d, func() (string, any) { return opMix[kinds.Choice(weights)].kind, nil }) {
		if a.kind != "submit" {
			ops = append(ops, a)
			continue
		}
		for {
			op, ok := q.replay.nextOp()
			if !ok {
				return nil, fmt.Errorf("trace used up while scheduling %g ops/s", rate)
			}
			if op.job == nil {
				ops = append(ops, dueOp{due: a.due, kind: "advance", arg: op})
				continue
			}
			ops = append(ops, dueOp{due: a.due, kind: "submit", arg: op})
			break
		}
	}
	return ops, nil
}

// exec performs one scheduled operation on connection conn.
func (q *queryInstance) exec(conn int, op dueOp) error {
	c := q.callers[conn]
	var req slurm.Request
	switch op.kind {
	case "submit", "advance":
		_, req = op.arg.(replayOp).request()
	case "queue":
		req = slurm.Request{Op: "queue"}
	case "queue_history":
		req = slurm.Request{Op: "queue", History: true, Limit: 100}
	default: // nodes, stats, config
		req = slurm.Request{Op: op.kind}
	}
	_, _, err := c.do(op.kind, req)
	return err
}

// stepResult is one rate's verdict.
type stepResult struct {
	rate                            float64
	readP50, readP95, readP99       float64
	submitP50, submitP95            float64
	reads, submits, failed, dropped int
	ackedPerS                       float64
	ok                              bool
}

func summarizeStep(rate float64, d time.Duration, out stepOutcome) stepResult {
	s := stepResult{rate: rate, dropped: out.dropped}
	var reads, submits []float64
	for _, smp := range out.samples {
		ms := float64(smp.latency.Nanoseconds()) / 1e6
		switch {
		case smp.err != nil:
			s.failed++
		case readKinds[smp.kind]:
			reads = append(reads, ms)
		case smp.kind == "submit":
			submits = append(submits, ms)
		}
	}
	s.reads, s.submits = len(reads), len(submits)
	if len(reads) > 0 {
		s.readP50, s.readP95, s.readP99 = stats.Median(reads), stats.Percentile(reads, 95), stats.Percentile(reads, 99)
	}
	if len(submits) > 0 {
		s.submitP50, s.submitP95 = stats.Median(submits), stats.Percentile(submits, 95)
	}
	s.ackedPerS = float64(len(submits)) / d.Seconds()
	s.ok = len(reads) > 0 && len(submits) > 0 && s.failed == 0 && s.dropped == 0 &&
		s.readP95 <= readP95LimitMS && s.submitP95 <= submitP95LimitMS
	return s
}

func (q *queryInstance) measure(d time.Duration, tr *tracer, res *result) error {
	// Untimed warm-up: every connection has carried every read verb.
	for i := range q.callers {
		for _, kind := range []string{"queue", "queue_history", "nodes", "stats", "config"} {
			if err := q.exec(i, dueOp{kind: kind}); err != nil {
				return err
			}
		}
	}
	for _, c := range q.callers {
		c.reset(tr, 1)
	}
	fsBefore := q.node.fs.c.snapshot()

	var steps []stepResult
	var late []float64
	ladderStart := time.Now()
	for i, rate := range ladderRates {
		stepDur := time.Duration(float64(d) * ladderShares[i])
		ops, err := q.schedule(rate, stepDur)
		if err != nil {
			return err
		}
		for _, c := range q.callers {
			c.rep = i + 1
		}
		sp := tr.start(0, i+1, fmt.Sprintf("ctl.step_r%g", rate))
		out := runOpenLoop(ops, stepDur, len(q.callers), q.exec)
		sp.end(map[string]float64{"scheduled": float64(len(ops)), "dropped": float64(out.dropped)})
		steps = append(steps, summarizeStep(rate, stepDur, out))
		for _, l := range out.late {
			late = append(late, float64(l.Nanoseconds())/1e6)
		}
	}
	ladderWall := time.Since(ladderStart)

	_, acked := mergeCallers(q.callers, res)
	// A dropped operation is not a failed one: it fails its step's limit.
	r200, r400, r800 := steps[0], steps[1], steps[2]
	res.set("submit_p50_ms", r200.submitP50)
	res.set("submit_p95_ms", r200.submitP95)
	res.note("submit_p95_ms", "%d submits at 200 ops/s, timed from when each was due; highest supported percentile p%.4g", r200.submits, supportedTail(r200.submits))
	res.set("read_p50_ms", r200.readP50)
	res.set("read_p99_ms", r200.readP99)
	res.note("read_p99_ms", "%d reads at 200 ops/s, timed from when each was due; highest supported percentile p%.4g", r200.reads, supportedTail(r200.reads))
	res.headlineMS = r200.submitP50

	maxOK := 0.0
	for _, s := range steps {
		if s.ok {
			maxOK = s.rate
		}
	}
	res.set("max_rate_ok", maxOK)
	res.note("max_rate_ok", "limits read p95 ≤ %g ms, submit p95 ≤ %g ms, nothing failed or dropped; read p95 at 200/400/800: %.1f / %.1f / %.1f ms",
		readP95LimitMS, submitP95LimitMS, r200.readP95, r400.readP95, r800.readP95)
	res.set("slurm.read_p95_ms_r400", r400.readP95)
	res.set("slurm.read_p95_ms_r800", r800.readP95)
	res.set("slurm.acked_per_s_r800", r800.ackedPerS)
	res.set("slurm.late_dropped_r400", float64(r400.dropped))
	res.set("slurm.late_dropped_r800", float64(r800.dropped))
	if len(late) > 0 {
		res.set("slurm.gen_late_p99_ms", stats.Percentile(late, 99))
	}
	// What the line protocol and admission cost a submit: its latency at 200
	// ops/s, less the one modelled fsync its record needs, less the in-process
	// call.
	direct := res.values["slurm.direct_submit_us"]
	res.set("slurm.wire_overhead_us", (r200.submitP50-float64(fsyncModel.Milliseconds()))*1e3-direct)

	fsyncMetrics(q.node.fs.c.snapshot().sub(fsBefore), ladderWall, len(acked), res)
	if err := healthMetrics(q.callers[0], res); err != nil {
		return err
	}

	want := q.preload + len(acked)
	if q.cfg.inject == "drop-ack" {
		want++
	}
	replayTook, err := auditAcked(q.node, want, acked, res)
	if err != nil {
		return err
	}
	res.set("slurm.recovery_replay_s", replayTook.Seconds())
	return nil
}
