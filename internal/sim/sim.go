// Package sim is the batch-system simulation engine: it wires the
// discrete-event kernel, the cluster model, a scheduling policy, and the
// interference model into runnable experiments.
//
// The engine owns all state mutation. Policies only return decisions; the
// engine commits them, starts jobs, and — the part specific to node sharing —
// re-integrates every affected job's progress whenever co-location changes:
// a job's progress rate is the minimum, over the nodes it occupies, of its
// interference-model rate among that node's residents (bulk-synchronous
// semantics: the slowest node paces the whole job). Completion events are
// rescheduled on every rate change, so completions are exact up to float
// round-off.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Config assembles an engine.
type Config struct {
	// Cluster is the machine to simulate.
	Cluster cluster.Config
	// Policy is the scheduling policy under test.
	Policy sched.Policy
	// Inter is the co-run model; nil selects interference.Default().
	Inter *interference.Model
	// StrictLimits, when set, kills a job when its wall-clock execution
	// exceeds the requested walltime, as an unmodified batch system would.
	// The default (false) models the paper's limit extension: when the
	// system itself slows a job by co-allocating beside it, the limit
	// stretches by the measured inflation, so jobs are only ever killed
	// for under-requesting — which the generator never does. Strict limits
	// with sharing kill stretched jobs and waste their occupancy (ablation
	// A4).
	StrictLimits bool
	// Topo, when set, makes network interference placement-dependent: a
	// job spread across leaf switches has its effective network stress
	// scaled by the topology's uplink factor, so scattered co-locations
	// interfere more. Nil keeps the interconnect transparent.
	Topo *topology.Topology
	// LocalityAware passes the topology to the scheduling policies so
	// they order idle candidates compactly (fewest leaf switches per
	// job). Requires Topo; the F10 experiment ablates it.
	LocalityAware bool
	// SchedInterval batches scheduling onto a periodic tick (SLURM's
	// backfill runs every bf_interval seconds, 30 by default) instead of
	// reacting to every event. Zero keeps the event-driven default, which
	// bounds the best achievable responsiveness.
	SchedInterval des.Duration
	// Faults enables deterministic fault injection: per-node MTBF/MTTR
	// failures that kill every resident job (co-located victims included)
	// and per-job crash probability, with requeue under max-retries and
	// exponential backoff. The zero value, like any inactive one, is
	// bit-identical to a build without the fault layer: no events, no RNG
	// draws, no cost; the engine then requeues operator-forced failures
	// under fault.Defaults' retry policy.
	Faults fault.Config
}

// shareConfigurer is implemented by the sharing policies to expose their
// configuration; the engine passes it through to the scheduling context.
type shareConfigurer interface {
	ShareConfig() sched.ShareConfig
}

// runRec is the engine's bookkeeping for one attempt of a running job. Its
// events capture it, so an event always acts on the attempt that scheduled it.
type runRec struct {
	job        *job.Job
	rec        sched.RunningJob // the scheduler's view; Engine.runList points here
	stress     app.StressVector // effective stress: fixed with the placement
	complete   des.Handler      // fires onComplete; rescheduled on every rate change
	completion *des.Event
	kill       *des.Event // set only under strict limits
	crash      *des.Event // set only when this attempt drew a crash
}

// heldJob is an arrived job that may not be queued yet.
type heldJob struct {
	job     *job.Job
	reason  string     // why it waits, as squeue names it: "Dependency" or "BeginTime"
	release *des.Event // the backoff's end while it is pending
}

// queuedTrace is the trace line of a job settle queues, by why it waited.
var queuedTrace = map[string]string{"": "submit %s",
	"Dependency": "release %s (dependencies met)", "BeginTime": "release %s from backoff"}

// Engine simulates one batch system instance.
type Engine struct {
	sim   *des.Simulator
	cl    *cluster.Cluster
	pol   sched.Policy
	inter *interference.Model
	share sched.ShareConfig
	topo  *topology.Topology
	local bool

	strictLimits  bool
	schedInterval des.Duration

	// Every arrived job that has not ended is in exactly one of queue, held
	// and runList; an ended one is in ended and one of finished, killed and
	// rejected.
	queue    []*job.Job // pending jobs, in arrival order; see enqueue and dequeue
	unsorted int        // adjacent pairs of queue out of fcfs order
	held     []*heldJob // arrived but not yet queueable, in hold order
	ended    map[cluster.JobID]*job.Job
	runList  []*sched.RunningJob // the running set by ascending job ID, maintained on start and release
	nodeRes  [][]*runRec         // per node: its resident jobs by ascending job ID
	finished []*job.Job
	rejected []*job.Job
	killed   []*job.Job
	history  []PlacementRecord

	// nodeRates[ni] holds the progress rates of nodeRes[ni]'s jobs, in that
	// order, or nothing when a resident came or went since it was computed.
	// A node's rates are a function of its residents' applications and
	// effective stress alone, and both are fixed at commit.
	nodeRates [][]float64

	wastedNodeSeconds float64

	submitted int
	lastEnd   des.Time // completion time of the last finished job

	// Busy/shared node-second integrals.
	lastAccount    des.Time
	busyIntegral   float64
	sharedIntegral float64

	decisionTimes []time.Duration
	// samples are what Result summarizes, fed from finished and
	// decisionTimes up to the cursors finFed and passFed.
	samples         metrics.Samples
	finFed, passFed int
	schedQueued     bool
	passFn          des.Handler // the scheduling-pass event, built once

	// ctx is the one scheduling context the engine hands its policy, pass
	// after pass. It carries the planner's scratch (see sched.Context), so
	// keeping it is what lets a pass reuse memory instead of allocating.
	ctx sched.Context

	// Buffers the pass and the rate update reuse.
	order    queueOrder // the queue in scheduling order
	affected []*runRec  // jobs whose rate a start or a release changed
	loads    []interference.Load

	// Fault injection and recovery. All zero-valued when Faults is off.
	injector        *fault.Injector
	retryMax        int
	backoffBase     des.Duration
	arrivalsPending int // submitted arrival events not yet fired
	downCount       int
	downIntegral    float64
	lostNodeSeconds float64
	nodeFails       int
	nodeRepairs     int
	crashes         int
	requeues        int
	permanentFails  int
	reschedSum      float64
	reschedN        int

	// TraceFn, when set, receives one line per simulation event
	// (submission, start, completion) for debugging and the CLI's
	// --trace mode.
	TraceFn func(line string)

	// lessFn orders the pending queue for the scheduler; nil means FCFS
	// (submit time, then ID). The SLURM layer installs multifactor
	// priority here.
	lessFn func(a, b *job.Job) bool
}

// New builds an engine. It panics on invalid configuration (programming
// error at experiment setup).
func New(cfg Config) *Engine {
	if cfg.Policy == nil {
		panic("sim: Config.Policy is nil")
	}
	inter := cfg.Inter
	if inter == nil {
		inter = interference.Default()
	}
	if cfg.Topo != nil {
		if err := cfg.Topo.Validate(); err != nil {
			panic(err)
		}
	}
	if cfg.LocalityAware && cfg.Topo == nil {
		panic("sim: LocalityAware requires Topo")
	}
	e := &Engine{
		sim:           des.NewSimulator(),
		cl:            cluster.New(cfg.Cluster),
		pol:           cfg.Policy,
		inter:         inter,
		strictLimits:  cfg.StrictLimits,
		schedInterval: cfg.SchedInterval,
		topo:          cfg.Topo,
		local:         cfg.LocalityAware,
		ended:         make(map[cluster.JobID]*job.Job),
	}
	e.nodeRes = make([][]*runRec, e.cl.Size())
	// One backing array with room for two residents' rates a node; a node
	// with more grows its own.
	e.nodeRates = make([][]float64, e.cl.Size())
	rates := make([]float64, 2*len(e.nodeRates))
	for ni := range e.nodeRates {
		e.nodeRates[ni] = rates[2*ni : 2*ni : 2*ni+2]
	}
	if sc, ok := cfg.Policy.(shareConfigurer); ok {
		e.share = sc.ShareConfig()
	}
	e.ctx = sched.Context{Cluster: e.cl, Inter: e.inter, Share: e.share}
	if e.local {
		e.ctx.Topo = e.topo
	}
	e.passFn = func(*des.Simulator) {
		e.schedQueued = false
		e.schedulePass()
	}
	retry := fault.Defaults()
	if cfg.Faults.Active() {
		inj, err := fault.NewInjector(cfg.Faults, cfg.Cluster.Nodes)
		if err != nil {
			panic(err)
		}
		e.injector = inj
		retry = cfg.Faults
		inj.Install(e.sim, e.onNodeFail, e.onNodeRepair, e.workRemains)
	}
	e.retryMax = retry.MaxRetries
	e.backoffBase = retry.Backoff
	return e
}

// Cluster exposes the machine (read-only use expected).
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Now returns the current simulated time.
func (e *Engine) Now() des.Time { return e.sim.Now() }

// Submit registers a job for arrival at j.Submit. A job that asks for more
// nodes or more memory per node than the machine has is rejected at arrival,
// and one whose afterok dependency already ended unfinished is cancelled:
// both are recorded as rejected. Submission is also legal mid-run (the
// interactive SLURM layer uses it) as long as j.Submit is not in the past.
func (e *Engine) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	e.submitted++
	e.arrivalsPending++
	e.sim.Schedule(j.Submit, func(*des.Simulator) {
		e.arrivalsPending--
		switch {
		case j.Nodes > e.cl.Size():
			e.reject(j, "reject %s (machine has %d nodes)", j, e.cl.Size())
		case j.App.MemPerNodeMB > e.cl.Config().MemoryPerNodeMB:
			e.reject(j, "reject %s (needs %d MB/node, nodes have %d MB)",
				j, j.App.MemPerNodeMB, e.cl.Config().MemoryPerNodeMB)
		default:
			if _, cancelled := e.settle(heldJob{job: j}); !cancelled {
				return
			}
		}
		e.releaseHeld()
	})
	return nil
}

// settle is the one verdict on an arrived job that is not queued, running or
// ended: wait out a pending backoff, cancel on a dependency that ended
// unfinished, wait on one not yet finished, or queue. h.reason is empty at
// arrival, where a job that must wait joins e.held. A cancel may doom held
// dependents, so the caller of a settle that cancelled runs releaseHeld.
func (e *Engine) settle(h heldJob) (waits, cancelled bool) {
	j := h.job
	switch {
	case h.release != nil:
		return true, false
	case e.depsBroken(j):
		e.reject(j, "cancel %s (dependency failed)", j)
		return false, true
	case !e.depsMet(j):
		if h.reason == "" {
			e.held = append(e.held, &heldJob{job: j, reason: "Dependency"})
			e.trace("hold %s (dependencies pending)", j)
		}
		return true, false
	}
	e.enqueue(j)
	if e.TraceFn != nil {
		e.trace(queuedTrace[h.reason], j)
	}
	e.requestSchedule()
	return false, false
}

// depsMet reports whether every dependency of j has finished.
func (e *Engine) depsMet(j *job.Job) bool {
	for _, dep := range j.After {
		if d := e.ended[dep]; d == nil || d.State() != job.Finished {
			return false
		}
	}
	return true
}

// releaseHeld settles every held job again after a job ended or a backoff
// ran out (afterok semantics: a killed or cancelled predecessor dooms the
// dependent), sweeping until a sweep cancels nothing, as a cancel may doom
// transitive dependents.
func (e *Engine) releaseHeld() {
	for again := true; again; {
		again = false
		kept := e.held[:0]
		for _, h := range e.held {
			waits, cancelled := e.settle(*h)
			if waits {
				kept = append(kept, h)
			}
			again = again || cancelled
		}
		clear(e.held[len(kept):])
		e.held = kept
	}
}

// depsBroken reports whether any dependency of j ended without finishing.
func (e *Engine) depsBroken(j *job.Job) bool {
	for _, dep := range j.After {
		if d := e.ended[dep]; d != nil && d.State() != job.Finished {
			return true
		}
	}
	return false
}

// reject cancels a job that never started and files it with the rejected,
// tracing format. Releasing or dooming its dependents is the caller's.
func (e *Engine) reject(j *job.Job, format string, args ...any) {
	j.Cancel(e.sim.Now())
	e.ended[j.ID] = j
	e.rejected = append(e.rejected, j)
	e.trace(format, args...)
}

// retire files a job whose attempt ended it on the machine — finished,
// killed at its limit, or failed out of retries — records the placement, and
// releases or dooms its dependents.
func (e *Engine) retire(rec *runRec) {
	j := rec.job
	e.ended[j.ID] = j
	if j.State() == job.Finished {
		e.finished = append(e.finished, j)
	} else {
		e.killed = append(e.killed, j)
	}
	e.record(rec, j.State())
	if now := e.sim.Now(); now > e.lastEnd {
		e.lastEnd = now
	}
	e.releaseHeld()
}

// SubmitAll submits a batch, stopping at the first invalid job.
func (e *Engine) SubmitAll(jobs []*job.Job) error {
	for _, j := range jobs {
		if err := e.Submit(j); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the simulation until the event queue drains or the horizon
// passes.
func (e *Engine) Run(until des.Time) {
	e.sim.Run(until)
	e.account(e.sim.Now())
}

// RunAll executes until no events remain.
func (e *Engine) RunAll() { e.Run(des.Forever) }

// requestSchedule queues a scheduling pass: at the current instant when
// event-driven, or at the next periodic tick when a scheduling interval is
// configured. Multiple requests per instant/tick coalesce into one pass.
func (e *Engine) requestSchedule() {
	if e.schedQueued {
		return
	}
	at := e.sim.Now()
	if e.schedInterval > 0 {
		// Align to the next tick boundary (a request exactly on a boundary
		// runs on that boundary).
		ticks := float64(at) / float64(e.schedInterval)
		next := des.Time(math.Ceil(ticks)) * des.Time(e.schedInterval)
		if next < at {
			next = at
		}
		at = next
	}
	e.schedQueued = true
	e.sim.Schedule(at, e.passFn)
}

// schedulePass runs the policy once and commits its decisions.
func (e *Engine) schedulePass() {
	if len(e.queue) == 0 {
		return
	}
	e.ctx.Now = e.sim.Now()
	e.ctx.Queue = e.orderedQueue()
	e.ctx.Running = e.runList
	start := time.Now()
	decisions := e.pol.Schedule(&e.ctx)
	e.decisionTimes = append(e.decisionTimes, time.Since(start))

	for _, d := range decisions {
		e.commit(d)
	}
}

// commit starts one job per the policy's decision.
func (e *Engine) commit(d sched.Decision) {
	now := e.sim.Now()
	e.account(now)
	if err := e.cl.Allocate(d.Placement); err != nil {
		// A policy returned an uncommittable placement; that is a policy
		// bug, surface it loudly.
		panic(fmt.Sprintf("sim: policy %s produced invalid placement for job %d: %v",
			e.pol.Name(), d.Job.ID, err))
	}
	at := slices.Index(e.queue, d.Job)
	if at < 0 {
		panic(fmt.Sprintf("sim: started job %d not in queue", d.Job.ID))
	}
	e.dequeue(at)
	// Only an eviction makes a job pending again, so a start after one is a
	// reschedule.
	if d.Job.Requeues() > 0 {
		e.reschedSum += float64(now - d.Job.EvictedAt())
		e.reschedN++
	}
	d.Job.Start(now)

	rec := &runRec{
		job: d.Job,
		rec: sched.RunningJob{
			Job:          d.Job,
			NodeIDs:      d.Placement.NodeIDs(),
			Exclusive:    !d.Shared,
			NominalEnd:   now + d.Job.ReqWalltime,
			PredictedEnd: now + d.Job.ReqWalltime,
			Rate:         1,
		},
	}
	rec.complete = func(*des.Simulator) { e.onComplete(rec) }
	rec.stress = e.effectiveStress(rec)
	e.enlist(rec)
	if e.strictLimits {
		rec.kill = e.sim.Schedule(rec.rec.NominalEnd, func(*des.Simulator) {
			e.onKill(rec)
		})
	}
	if e.injector != nil {
		if frac, crashes := e.injector.CrashDraw(int64(d.Job.ID), d.Job.Requeues()); crashes {
			rec.crash = e.sim.Schedule(now+des.Duration(frac*float64(d.Job.ReqWalltime)),
				func(*des.Simulator) { e.onJobCrash(rec) })
		}
	}
	if e.TraceFn != nil {
		e.trace("start %s on nodes %v shared=%v", d.Job, rec.rec.NodeIDs, d.Shared)
	}

	// Starting this job may change rates for every resident of its nodes,
	// including itself.
	e.updateRatesOnNodes(rec.rec.NodeIDs)
}

// onComplete finishes a job, releases its resources, and updates the
// co-residents it leaves behind.
func (e *Engine) onComplete(rec *runRec) {
	now := e.sim.Now()
	e.account(now)

	rec.job.Finish(now)
	nodes := e.vacate(rec)
	if e.TraceFn != nil {
		e.trace("finish %s", rec.job)
	}
	e.retire(rec)

	// Survivors on the freed nodes speed up.
	e.updateRatesOnNodes(nodes)
	e.requestSchedule()
}

// onKill enforces the walltime limit: the job is terminated with its work
// discarded. A job whose residual work is round-off (completion and limit
// coincide) is treated as completed instead.
func (e *Engine) onKill(rec *runRec) {
	now := e.sim.Now()
	if rec.job.WorkDone(now) {
		e.onComplete(rec)
		return
	}
	e.account(now)
	rec.job.Kill(now)
	nodes := e.vacate(rec)
	e.wastedNodeSeconds += float64(rec.job.Nodes) * float64(rec.job.EndTime()-rec.job.StartTime())
	e.trace("kill %s at walltime limit (%.0fs of work lost)",
		rec.job, float64(rec.job.TrueRuntime)-rec.job.DeliveredWork())
	e.retire(rec)

	e.updateRatesOnNodes(nodes)
	e.requestSchedule()
}

// workRemains reports whether the simulation still has workload to disturb;
// the fault injector quiesces when it returns false so RunAll terminates.
func (e *Engine) workRemains() bool {
	return e.arrivalsPending > 0 || len(e.queue) > 0 || len(e.held) > 0 || len(e.runList) > 0
}

// onNodeFail is the node-failure reaction: every resident job is evicted
// (co-located victims included — the risk node sharing concentrates) and the
// node goes DOWN until repaired. Backfill reservations need no explicit
// invalidation: policies are stateless per pass and replan from IdleNodes,
// which excludes down nodes.
func (e *Engine) onNodeFail(ni int) {
	n := e.cl.Node(ni)
	if n.Down() {
		return // already downed by the operator; nothing more to break
	}
	e.account(e.sim.Now())
	victims := slices.Clone(e.nodeRes[ni]) // by ascending ID; eviction edits the node's set
	e.trace("node %d failed (%d resident jobs)", ni, len(victims))
	for _, rec := range victims {
		e.evict(rec, "node failure")
	}
	e.cl.SetDown(ni, true)
	e.downCount++
	e.nodeFails++
	e.requestSchedule()
}

// onNodeRepair returns a failed node to service.
func (e *Engine) onNodeRepair(ni int) {
	n := e.cl.Node(ni)
	if !n.Down() {
		return // already resumed by the operator
	}
	e.account(e.sim.Now())
	e.cl.SetDown(ni, false)
	e.downCount--
	e.nodeRepairs++
	e.trace("node %d repaired", ni)
	e.requestSchedule()
}

// onJobCrash terminates one attempt by software failure. A job whose residual
// work is round-off at the crash instant completes instead.
func (e *Engine) onJobCrash(rec *runRec) {
	if rec.job.WorkDone(e.sim.Now()) {
		e.onComplete(rec)
		return
	}
	e.crashes++
	e.trace("crash %s", rec.job)
	e.evict(rec, "crash")
	e.requestSchedule()
}

// evict removes a running job from its nodes after a failure, charging the
// attempt's partial progress to the lost-work account, and either requeues it
// (keeping its original submit time, so it re-enters near the queue head, but
// held out for an exponential backoff) or — once the retry budget is spent —
// marks it permanently failed. A job held out for a backoff waits in the
// held list until its release event settles it like any held job; a zero
// backoff settles it at once.
func (e *Engine) evict(rec *runRec, cause string) {
	now := e.sim.Now()
	e.account(now)
	j := rec.job
	lost := j.Requeue(now)
	e.lostNodeSeconds += lost * float64(j.Nodes)
	nodes := e.vacate(rec)
	retry := j.Requeues()

	if retry > e.retryMax {
		j.Fail(now)
		e.permanentFails++
		e.trace("fail %s (%s, retries exhausted after %d attempts, %.0fs of work lost)",
			j, cause, retry, lost)
		e.retire(rec)
	} else {
		e.requeues++
		hold := fault.BackoffFor(e.backoffBase, retry)
		e.trace("requeue %s (%s, retry %d/%d, backoff %v, %.0fs of work lost)",
			j, cause, retry, e.retryMax, hold, lost)
		h := &heldJob{job: j, reason: "BeginTime"}
		if hold > 0 {
			h.release = e.sim.ScheduleIn(hold, func(*des.Simulator) {
				h.release = nil
				e.releaseHeld()
			})
			e.held = append(e.held, h)
		} else {
			e.settle(*h)
		}
	}
	e.updateRatesOnNodes(nodes)
}

// FailNode forces a node failure at the current instant — the operator's
// `scontrol update State=DOWN` path. Resident jobs are evicted and requeued
// under the same retry policy as injected failures.
func (e *Engine) FailNode(ni int) error {
	if ni < 0 || ni >= e.cl.Size() {
		return fmt.Errorf("sim: node %d out of range", ni)
	}
	if e.cl.Node(ni).Down() {
		return fmt.Errorf("sim: node %d is already down", ni)
	}
	e.onNodeFail(ni)
	return nil
}

// RepairNode returns a down node to service (scontrol update State=RESUME).
func (e *Engine) RepairNode(ni int) error {
	if ni < 0 || ni >= e.cl.Size() {
		return fmt.Errorf("sim: node %d out of range", ni)
	}
	if !e.cl.Node(ni).Down() {
		return fmt.Errorf("sim: node %d is not down", ni)
	}
	e.onNodeRepair(ni)
	return nil
}

// RequeueRunning evicts one running job and requeues it (scontrol requeue).
// The eviction charges lost work and counts against the job's retry budget.
func (e *Engine) RequeueRunning(id cluster.JobID) error {
	at, ok := slices.BinarySearchFunc(e.runList, id, byJobID)
	if !ok {
		return fmt.Errorf("sim: job %d is not running", id)
	}
	// The attempt's runRec is a resident of every node the job holds.
	r := e.runList[at]
	res := e.nodeRes[r.NodeIDs[0]]
	e.evict(res[slices.IndexFunc(res, func(rec *runRec) bool { return &rec.rec == r })], "operator requeue")
	e.requestSchedule()
	return nil
}

// byJobID orders the running list for a binary search by job ID.
func byJobID(r *sched.RunningJob, id cluster.JobID) int { return cmp.Compare(r.Job.ID, id) }

// enlist enters a started job into the engine's running-set indexes: the
// ID-ordered list the scheduler reads and each node's residents.
func (e *Engine) enlist(rec *runRec) {
	id := rec.job.ID
	at, _ := slices.BinarySearchFunc(e.runList, id, byJobID)
	e.runList = slices.Insert(e.runList, at, &rec.rec)
	for _, ni := range rec.rec.NodeIDs {
		res := e.nodeRes[ni]
		at := len(res)
		for at > 0 && res[at-1].job.ID > id {
			at--
		}
		e.nodeRes[ni] = slices.Insert(res, at, rec)
		e.nodeRates[ni] = e.nodeRates[ni][:0]
	}
}

// vacate ends an attempt: it cancels the attempt's completion, kill and
// crash events (the one firing, if any, is past cancelling), releases the
// job's resources, drops it from the running-set indexes and returns the
// nodes it held.
func (e *Engine) vacate(rec *runRec) []int {
	e.sim.Cancel(rec.completion)
	e.sim.Cancel(rec.kill)
	e.sim.Cancel(rec.crash)
	id := rec.job.ID
	nodes, err := e.cl.Release(id)
	if err != nil {
		panic(fmt.Sprintf("sim: release job %d: %v", id, err))
	}
	at := slices.Index(e.runList, &rec.rec)
	e.runList = slices.Delete(e.runList, at, at+1)
	for _, ni := range rec.rec.NodeIDs {
		at := slices.Index(e.nodeRes[ni], rec)
		e.nodeRes[ni] = slices.Delete(e.nodeRes[ni], at, at+1)
		e.nodeRates[ni] = e.nodeRates[ni][:0]
	}
	return nodes
}

// updateRatesOnNodes re-derives the progress rate of every job touching the
// given nodes, in job-ID order, and reschedules their completion events.
func (e *Engine) updateRatesOnNodes(nodes []int) {
	aff := e.affected[:0]
	for _, ni := range nodes {
		aff = append(aff, e.nodeRes[ni]...)
	}
	slices.SortFunc(aff, func(a, b *runRec) int { return cmp.Compare(a.job.ID, b.job.ID) })
	aff = slices.Compact(aff)
	for _, rec := range aff {
		e.recomputeRate(rec)
	}
	clear(aff)
	e.affected = aff
}

// recomputeRate applies the interference model across all of a job's nodes.
func (e *Engine) recomputeRate(rec *runRec) {
	now := e.sim.Now()
	rate := 1.0
	for _, ni := range rec.rec.NodeIDs {
		nodeRate := e.nodeRateFor(ni, rec)
		if nodeRate < rate {
			rate = nodeRate
		}
	}
	rec.job.SetRate(now, rate)
	rec.rec.Rate = rate

	// Requested-walltime-based predicted end for the scheduler's planning:
	// remaining requested work over the current rate.
	done := float64(rec.job.TrueRuntime) - rec.job.Remaining(now)
	reqRemaining := float64(rec.job.ReqWalltime) - done
	if reqRemaining < 0 {
		reqRemaining = 0
	}
	rec.rec.PredictedEnd = now + des.Duration(reqRemaining/rate)

	// Reschedule the exact completion.
	if rec.completion != nil {
		e.sim.Cancel(rec.completion)
	}
	rec.completion = e.sim.Schedule(rec.job.ETA(now), rec.complete)
}

// nodeRateFor returns the progress rate rec's job achieves on node ni given
// the node's full co-location set. The node's rates are computed once per
// change of its residents and kept in nodeRates.
func (e *Engine) nodeRateFor(ni int, rec *runRec) float64 {
	res := e.nodeRes[ni]
	idx := slices.Index(res, rec)
	if idx == -1 {
		panic(fmt.Sprintf("sim: job %d not resident on node %d", rec.job.ID, ni))
	}
	if len(e.nodeRates[ni]) == 0 {
		loads := e.loads[:0]
		for _, rr := range res {
			loads = append(loads, interference.Load{App: rr.job.App.Name, Stress: rr.stress})
		}
		e.loads = loads
		e.nodeRates[ni] = e.inter.AppendNamedRates(e.nodeRates[ni], loads)
	}
	return e.nodeRates[ni][idx]
}

// effectiveStress returns a job's stress vector adjusted for placement
// spread: with a topology configured, an allocation spanning several leaf
// switches pushes more traffic through the uplinks, raising its effective
// network demand. A job's dedicated baseline already includes its own
// communication, so the factor only changes how much it contends when
// sharing. It depends on the placement alone, so commit computes it once.
func (e *Engine) effectiveStress(rr *runRec) app.StressVector {
	v := rr.job.App.Stress
	if e.topo == nil {
		return v
	}
	f := e.topo.NetworkFactor(e.topo.Spread(rr.rec.NodeIDs))
	net := v[app.Network] * f
	if net > 1 {
		net = 1
	}
	v[app.Network] = net
	return v
}

// account integrates busy/shared node counts up to time t.
func (e *Engine) account(t des.Time) {
	dt := float64(t - e.lastAccount)
	if dt < 0 {
		panic(fmt.Sprintf("sim: accounting backwards from %v to %v", e.lastAccount, t))
	}
	e.busyIntegral += dt * float64(e.cl.BusyNodes())
	e.sharedIntegral += dt * float64(e.cl.SharedNodes())
	e.downIntegral += dt * float64(e.downCount)
	e.lastAccount = t
}

// enqueue appends j to the pending queue. It and dequeue are the only
// writers of e.queue: they keep e.unsorted, the number of adjacent pairs out
// of fcfs order, so orderedQueue knows without a look whether the queue is
// already in FCFS order.
func (e *Engine) enqueue(j *job.Job) {
	e.queue = append(e.queue, j)
	e.unsorted += e.inversion(len(e.queue) - 1)
}

// dequeue removes the job at position i of the pending queue.
func (e *Engine) dequeue(i int) {
	e.unsorted -= e.inversion(i) + e.inversion(i+1)
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	e.unsorted += e.inversion(i)
}

// inversion is 1 when the job at position k of the pending queue is out of
// fcfs order with its predecessor, 0 otherwise or when either is missing.
func (e *Engine) inversion(k int) int {
	if k <= 0 || k >= len(e.queue) || !fcfs(e.queue[k], e.queue[k-1]) {
		return 0
	}
	return 1
}

// Kick forces a scheduling pass at the current instant, for callers that
// changed scheduler-visible state out of band (e.g. resuming a drained
// node).
func (e *Engine) Kick() {
	e.requestSchedule()
	e.sim.Run(e.sim.Now())
}

// SetQueueOrder installs a priority comparator for the pending queue
// (nil restores FCFS). The comparator runs on every scheduling pass, so
// age-dependent priorities re-rank continuously.
func (e *Engine) SetQueueOrder(less func(a, b *job.Job) bool) { e.lessFn = less }

// CancelPending cancels a job that has not started: queued, held on a
// dependency, or waiting out a requeue backoff (its release is cancelled
// too). Its afterok dependents are cancelled with it. Running or ended jobs
// cannot be cancelled (the simulator does not model preemption).
func (e *Engine) CancelPending(id cluster.JobID) error {
	var j *job.Job
	if at := slices.IndexFunc(e.queue, func(q *job.Job) bool { return q.ID == id }); at >= 0 {
		j = e.queue[at]
		e.dequeue(at)
	} else if at := slices.IndexFunc(e.held, func(h *heldJob) bool { return h.job.ID == id }); at >= 0 {
		j = e.held[at].job
		e.sim.Cancel(e.held[at].release)
		e.held = slices.Delete(e.held, at, at+1)
	} else {
		return fmt.Errorf("sim: job %d is not pending", id)
	}
	e.reject(j, "cancel %s", j)
	e.releaseHeld()
	return nil
}

// queueOrder sorts a copy of the pending queue into scheduling order.
type queueOrder struct {
	q    []*job.Job
	less func(a, b *job.Job) bool
}

func (o *queueOrder) Len() int           { return len(o.q) }
func (o *queueOrder) Less(i, j int) bool { return o.less(o.q[i], o.q[j]) }
func (o *queueOrder) Swap(i, j int)      { o.q[i], o.q[j] = o.q[j], o.q[i] }

// fcfs is the default queue order: submit time, then ID.
func fcfs(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// orderedQueue returns pending jobs in scheduling order — the installed
// priority order, or FCFS by default, ties in arrival order — in a buffer
// the next call overwrites. Arrivals mostly come in scheduling order
// already, so the stable sort runs only when the copy is out of order; under
// FCFS the inversion count says so without a look (sort.IsSorted is exactly
// "no adjacent pair out of order").
func (e *Engine) orderedQueue() []*job.Job {
	o := &e.order
	o.q = append(o.q[:0], e.queue...)
	o.less = e.lessFn
	if o.less == nil {
		if e.unsorted == 0 {
			return o.q
		}
		o.less = fcfs
	}
	if !sort.IsSorted(o) {
		sort.Stable(o)
	}
	return o.q
}

// Finished returns the finished jobs in completion order.
func (e *Engine) Finished() []*job.Job { return e.finished }

// Rejected returns jobs rejected at submission (request exceeded machine).
func (e *Engine) Rejected() []*job.Job { return e.rejected }

// Killed returns jobs terminated at their walltime limit, in kill order.
func (e *Engine) Killed() []*job.Job { return e.killed }

// Held calls visit, in hold order, with each arrived job that is not queued
// and why it waits: "Dependency" on an unfinished afterok dependency (after
// RunAll, one that never completed: a workload bug) or "BeginTime" for a
// requeued job's backoff. visit must not change the engine.
func (e *Engine) Held(visit func(j *job.Job, reason string)) {
	for _, h := range e.held {
		visit(h.job, h.reason)
	}
}

// PlacementRecord is the completed execution of one job: where it ran and
// when. The engine records one per finished or killed job for timeline
// rendering and accounting export.
type PlacementRecord struct {
	Job        cluster.JobID
	Name, App  string
	Nodes      []int
	Start, End des.Time
	Shared     bool
	Outcome    job.State
}

// History returns the placement records of completed (finished or killed)
// jobs, in completion order.
func (e *Engine) History() []PlacementRecord {
	out := make([]PlacementRecord, len(e.history))
	copy(out, e.history)
	return out
}

func (e *Engine) record(rec *runRec, outcome job.State) {
	e.history = append(e.history, PlacementRecord{
		Job:     rec.job.ID,
		Name:    rec.job.Name,
		App:     rec.job.App.Name,
		Nodes:   rec.rec.NodeIDs, // never written after commit, so shared
		Start:   rec.job.StartTime(),
		End:     rec.job.EndTime(),
		Shared:  rec.job.EverShared(),
		Outcome: outcome,
	})
}

// Pending returns a snapshot of the queue in scheduling order.
func (e *Engine) Pending() []*job.Job { return slices.Clone(e.orderedQueue()) }

// Running returns a snapshot of the running set ordered by job ID.
func (e *Engine) Running() []*sched.RunningJob { return slices.Clone(e.runList) }

// Result computes the run's metrics. Call after Run, or between steps: a
// Result after a few more events costs those events' jobs and passes, not
// the run so far.
func (e *Engine) Result() metrics.Result {
	raw := metrics.Result{
		Policy:            e.pol.Name(),
		Submitted:         e.submitted,
		Killed:            len(e.killed),
		WastedNodeSeconds: e.wastedNodeSeconds,
		Nodes:             e.cl.Size(),
		Makespan:          e.lastEnd,
		BusyNodeSeconds:   e.busyIntegral,
		SharedNodeSeconds: e.sharedIntegral,
		NodeFailures:      e.nodeFails,
		NodeRepairs:       e.nodeRepairs,
		JobCrashes:        e.crashes,
		Requeues:          e.requeues,
		FailedJobs:        e.permanentFails,
		LostNodeSeconds:   e.lostNodeSeconds,
		DownNodeSeconds:   e.downIntegral,
	}
	if e.reschedN > 0 {
		raw.MeanRescheduleSeconds = e.reschedSum / float64(e.reschedN)
	}
	e.samples.AddFinished(e.finished[e.finFed:])
	e.samples.AddDecisions(e.decisionTimes[e.passFed:])
	e.finFed, e.passFed = len(e.finished), len(e.decisionTimes)
	return metrics.Compute(raw, &e.samples)
}

func (e *Engine) trace(format string, args ...any) {
	if e.TraceFn != nil {
		e.TraceFn(fmt.Sprintf("[%s] %s", e.sim.Now(), fmt.Sprintf(format, args...)))
	}
}
