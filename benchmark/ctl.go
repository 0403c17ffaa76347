package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// This file is what the two controller workloads share: the trace they
// replay, one journaled controller behind a protocol server, one timed
// connection, and the audit that acknowledged submits are all there.

// advanceAfterGaps is how far (in mean inter-arrival gaps) the next job's
// submit time may run ahead of the controller's clock before the replay moves
// the clock. The controller's simulated time only moves when told, so this is
// what keeps the simulated queue stationary while submits arrive.
const advanceAfterGaps = 20

// replay turns a generated Trinity trace into the controller's operation
// stream: submits in trace order, with an advance in front of any submit the
// clock has fallen too far behind.
type replay struct {
	mu    sync.Mutex
	jobs  []*job.Job
	next  int
	clock des.Time
	gap   des.Duration
}

// replayOp is one operation of the stream: an advance by Advance seconds, or
// the submit of Job (with its index in the trace as the idempotency token).
type replayOp struct {
	advance des.Duration
	job     *job.Job
	index   int
}

func (o replayOp) token() string { return fmt.Sprintf("bench-%06d", o.index) }

func newReplay(seed uint64, jobs int) (*replay, error) {
	trace, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: jobs, Arrival: workload.Poisson, Load: 0.9,
		Cluster: cluster.Trinity(32), RuntimeScale: 0.05, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	gap := des.Duration(float64(trace[len(trace)-1].Submit-trace[0].Submit) / float64(len(trace)-1))
	return &replay{jobs: trace, gap: gap}, nil
}

// nextOp hands out the stream's next operation; ok is false once the trace is
// used up. Safe for concurrent callers.
func (r *replay) nextOp() (op replayOp, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= len(r.jobs) {
		return replayOp{}, false
	}
	j := r.jobs[r.next]
	if ahead := des.Duration(j.Submit - r.clock); ahead >= advanceAfterGaps*r.gap {
		r.clock = j.Submit
		return replayOp{advance: ahead}, true
	}
	r.next++
	return replayOp{job: j, index: r.next - 1}, true
}

// submitted is how many submits the stream has handed out.
func (r *replay) submitted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// request renders a replay operation for the wire.
func (o replayOp) request() (verb string, req slurm.Request) {
	if o.job == nil {
		return "advance", slurm.Request{Op: "advance", Seconds: float64(o.advance)}
	}
	return "submit", slurm.Request{
		Op: "submit", Token: o.token(), Name: o.token(), App: o.job.App.Name, Nodes: o.job.Nodes,
		Walltime: float64(o.job.ReqWalltime), Runtime: float64(o.job.TrueRuntime),
	}
}

// ctlNode is one journaled controller behind a protocol server, its journal
// written through a counting filesystem.
type ctlNode struct {
	ctl  *slurm.Controller
	srv  *slurm.Server
	addr string
	dir  string
	fs   countingFS

	stopped bool
}

func startNode(parent string, mode int32) (*ctlNode, error) {
	dir, err := os.MkdirTemp(parent, "ctl-")
	if err != nil {
		return nil, err
	}
	fs := newCountingFS(mode)
	ctl, err := slurm.OpenJournaledFS(slurm.DefaultConfig(), fs, dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := slurm.NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		ctl.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &ctlNode{ctl: ctl, srv: srv, addr: addr, dir: dir, fs: fs}, nil
}

// stop shuts the server and the controller down, once; the journal directory
// stays for the durability check.
func (n *ctlNode) stop() error {
	if n.stopped {
		return nil
	}
	n.stopped = true
	n.srv.Shutdown(5 * time.Second)
	return n.ctl.Close()
}

// caller is one load thread on one connection. It times every round trip from
// outside Client.Do and keeps its samples to itself until the run is over.
type caller struct {
	cl  *slurm.Client
	tr  *tracer
	rep int

	rtt    map[string][]time.Duration
	acked  map[string]int64 // submit token → job ID the controller returned
	failed int
	done   int
}

func dialCaller(addr string, tr *tracer, rep int) (*caller, error) {
	cl, err := slurm.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.Timeout = 30 * time.Second
	return &caller{cl: cl, tr: tr, rep: rep, rtt: map[string][]time.Duration{}, acked: map[string]int64{}}, nil
}

// reset opens a measured window: samples start over, acknowledgements stay
// (the jobs exist), and round trips are traced from here on.
func (c *caller) reset(tr *tracer, rep int) {
	c.tr, c.rep = tr, rep
	c.rtt = map[string][]time.Duration{}
	c.done, c.failed = 0, 0
}

// do performs one request and records its round-trip time under verb. A
// transport or protocol error counts as a failed operation.
func (c *caller) do(verb string, req slurm.Request) (slurm.Response, time.Duration, error) {
	sp := c.tr.start(0, c.rep, "slurm.client_do")
	start := time.Now()
	resp, err := c.cl.Do(req)
	d := time.Since(start)
	sp.end(map[string]float64{"ok": boolCount(err == nil)})
	c.done++
	if err != nil {
		c.failed++
		return resp, d, fmt.Errorf("%s: %w", verb, err)
	}
	c.rtt[verb] = append(c.rtt[verb], d)
	if verb == "submit" {
		c.acked[req.Token] = resp.ID
	}
	return resp, d, nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ctlVerbs are the verbs slurm.rtt_* is reported for.
var ctlVerbs = []string{"submit", "advance", "queue", "queue_history", "nodes", "stats", "config"}

// mergeCallers folds the callers' samples together and reports the per-verb
// round-trip metrics.
func mergeCallers(callers []*caller, res *result) (rtt map[string][]time.Duration, acked map[string]int64) {
	rtt = map[string][]time.Duration{}
	acked = map[string]int64{}
	for _, c := range callers {
		for verb, ds := range c.rtt {
			rtt[verb] = append(rtt[verb], ds...)
		}
		for token, id := range c.acked {
			acked[token] = id
		}
		res.ops(c.done, c.failed)
	}
	for _, verb := range ctlVerbs {
		res.latency("slurm.rtt_p50_ms."+verb, "slurm.rtt_p95_ms."+verb, 95, rtt[verb])
	}
	return rtt, acked
}

// auditAcked checks that every acknowledged submit is one job: distinct IDs,
// and a controller that lists exactly want jobs — first the live one, then a
// fresh controller recovering the same journal directory (acknowledged means
// durable). It stops the node and its HA peers, and returns how long the
// recovery took.
func auditAcked(node *ctlNode, want int, acked map[string]int64, res *result, peers ...*ctlNode) (time.Duration, error) {
	ids := map[int64]string{}
	for token, id := range acked {
		if other, dup := ids[id]; dup {
			res.problem("tokens %s and %s were both acknowledged as job %d", other, token, id)
		}
		ids[id] = token
	}

	count := func(ctl *slurm.Controller) int { return len(ctl.Queue()) + len(ctl.History()) }
	if got := count(node.ctl); got != want {
		res.problem("controller lists %d jobs, want %d (%d of them acknowledged over the wire)", got, want, len(acked))
	}
	// Every member of the pair stops before the journal is read again: a
	// standby left alone would eventually promote itself and journal that.
	for _, n := range append([]*ctlNode{node}, peers...) {
		if err := n.stop(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	reopened, err := slurm.OpenJournaledFS(slurm.DefaultConfig(), newCountingFS(syncSkip), node.dir, 0)
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("reopen journal: %w", err)
	}
	defer reopened.Close()
	if got := count(reopened); got != want {
		res.problem("recovered controller lists %d jobs, want %d: an acknowledged submit was not durable", got, want)
	}
	return took, nil
}

// fsyncMetrics reports what the counting filesystem saw over a window, per
// acknowledged submit.
func fsyncMetrics(w fsSnapshot, wall time.Duration, acked int, res *result) {
	per := float64(max(acked, 1))
	res.set("slurm.fsyncs_per_acked_submit", float64(w.syncs)/per)
	res.set("slurm.journal_appends_per_submit", float64(w.writes)/per)
	res.set("slurm.journal_bytes_per_submit", float64(w.writeBytes)/per)
	res.set("slurm.fsync_busy_ratio", float64(w.syncNS)/float64(wall.Nanoseconds()))
	res.set("vfs.sync_ms_mean", float64(w.syncNS)/1e6/float64(max(w.syncs, 1)))
	res.set("vfs.sync_real_ms_mean", float64(w.syncRealNS)/1e6/float64(max(w.syncs, 1)))
	res.set("vfs.write_calls", float64(w.writes))
}

// healthMetrics reads the server's own degradation counters after the run;
// at this benchmark's settings they should all be zero.
func healthMetrics(c *caller, res *result) error {
	resp, err := c.cl.HealthFull()
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	var sc slurm.ServeCounters
	if resp.Serve != nil {
		sc = *resp.Serve
	}
	res.set("slurm.busy", float64(sc.Busy))
	res.set("slurm.shed", float64(sc.Shed))
	res.set("slurm.deadline_exceeded", float64(sc.DeadlineExceeded))
	res.set("slurm.stale_reads", float64(sc.StaleReads))
	res.set("slurm.brownout_steps", float64(sc.BrownoutSteps))
	return nil
}
