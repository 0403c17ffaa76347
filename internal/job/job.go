// Package job models batch jobs and their progress under varying co-location.
//
// A job requests a number of whole nodes and a walltime. Its service demand
// is expressed in dedicated-node seconds: the time the job needs when it runs
// alone on its nodes (progress rate 1). Node sharing changes the progress
// rate over the job's life, so completion is defined by integration: the job
// finishes when the integral of its progress rate equals its true runtime.
// The Job type carries that integrator; the simulator drives it by calling
// SetRate whenever the job's co-location changes.
package job

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
)

// State is a job's lifecycle state.
type State int

// Lifecycle states. The transitions are Pending → Running → Finished; jobs
// may move Pending → Cancelled, Running → Killed when a batch system with
// strict limits terminates a job at its walltime, Running → Pending when a
// failure evicts and requeues the job, and Pending → Failed when its retries
// are exhausted.
const (
	Pending State = iota
	Running
	Finished
	Cancelled
	Killed
	Failed
)

// String returns the state name as used in queue listings.
func (s State) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Finished:
		return "FINISHED"
	case Cancelled:
		return "CANCELLED"
	case Killed:
		return "KILLED"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("STATE(%d)", int(s))
	}
}

// Job is one batch job. Fields set at submission are exported; runtime
// bookkeeping is accessed through methods so invariants hold.
type Job struct {
	// ID is the cluster-wide job identifier (assigned by the submitter).
	ID cluster.JobID
	// Name is a human-readable label, typically "<app>-<id>".
	Name string
	// User is the submitting user (empty when user modelling is off); the
	// fairshare priority factor groups usage by this field.
	User string
	// App is the application model the job runs.
	App app.Model
	// Nodes is the number of whole nodes requested.
	Nodes int
	// ReqWalltime is the user-requested walltime limit in dedicated-node
	// seconds. Schedulers plan with this value; users habitually
	// overestimate it.
	ReqWalltime des.Duration
	// TrueRuntime is the actual dedicated-node runtime: the service demand
	// the progress integrator must accumulate.
	TrueRuntime des.Duration
	// Submit is the submission time.
	Submit des.Time
	// After lists job IDs that must finish before this job becomes
	// eligible to run (sbatch --dependency=afterok; SWF's "preceding job").
	// The batch system holds the job out of the scheduling queue until
	// every dependency completes.
	After []cluster.JobID

	state State
	// start and end bracket the execution; valid per state.
	start, end des.Time

	// Progress integration.
	remaining  float64  // dedicated-seconds of work left at lastUpdate
	rate       float64  // current progress rate (0 < rate ≤ 1)
	lastUpdate des.Time // time of the last integration step

	// Sharing statistics.
	sharedSeconds float64 // wall seconds spent at rate < 1

	// Failure statistics.
	requeues  int      // times the job was evicted and returned to the queue
	evictedAt des.Time // when the last eviction happened
	lostWork  float64  // dedicated-seconds of progress discarded by evictions
}

// Validate checks submission-time invariants. The time comparisons are
// written so that NaN fails them, and each time must be finite: the engine's
// clock and every completion estimate are computed from them.
func (j *Job) Validate() error {
	wall, run, submit := float64(j.ReqWalltime), float64(j.TrueRuntime), float64(j.Submit)
	switch {
	case j.ID == cluster.NoJob:
		return fmt.Errorf("job: reserved ID %d", j.ID)
	case j.Nodes <= 0:
		return fmt.Errorf("job %d: non-positive node request %d", j.ID, j.Nodes)
	case !(wall > 0) || math.IsInf(wall, 1):
		return fmt.Errorf("job %d: walltime request %g is not positive and finite", j.ID, wall)
	case !(run > 0) || math.IsInf(run, 1):
		return fmt.Errorf("job %d: true runtime %g is not positive and finite", j.ID, run)
	case run > wall:
		// Real systems kill jobs at the limit; the generator always draws
		// TrueRuntime ≤ ReqWalltime, so a violation is a generator bug.
		return fmt.Errorf("job %d: true runtime %v exceeds requested walltime %v",
			j.ID, j.TrueRuntime, j.ReqWalltime)
	case !(submit >= 0) || math.IsInf(submit, 1):
		return fmt.Errorf("job %d: submit time %g is not non-negative and finite", j.ID, submit)
	}
	for _, dep := range j.After {
		if dep == j.ID {
			return fmt.Errorf("job %d: depends on itself", j.ID)
		}
		if dep == cluster.NoJob {
			return fmt.Errorf("job %d: dependency on reserved ID %d", j.ID, dep)
		}
	}
	return nil
}

// State returns the lifecycle state.
func (j *Job) State() State { return j.state }

// StartTime returns when the job started running (zero until started).
func (j *Job) StartTime() des.Time { return j.start }

// EndTime returns when the job finished or was cancelled (zero until then).
func (j *Job) EndTime() des.Time { return j.end }

// Start transitions the job to Running at time t with progress rate 1.
// The caller (the simulator) immediately follows with SetRate if the job is
// placed onto shared nodes.
func (j *Job) Start(t des.Time) {
	if j.state != Pending {
		panic(fmt.Sprintf("job %d: Start in state %v", j.ID, j.state))
	}
	if t < j.Submit {
		panic(fmt.Sprintf("job %d: started at %v before submit %v", j.ID, t, j.Submit))
	}
	j.state = Running
	j.start = t
	j.lastUpdate = t
	j.remaining = float64(j.TrueRuntime)
	j.rate = 1
}

// SetRate integrates progress up to time t at the old rate, then switches to
// the new rate. It panics if the job is not running, if t precedes the last
// update, or if the rate is outside (0, 1].
func (j *Job) SetRate(t des.Time, rate float64) {
	if j.state != Running {
		panic(fmt.Sprintf("job %d: SetRate in state %v", j.ID, j.state))
	}
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("job %d: rate %g outside (0,1]", j.ID, rate))
	}
	j.integrate(t)
	j.rate = rate
}

func (j *Job) integrate(t des.Time) {
	if t < j.lastUpdate {
		panic(fmt.Sprintf("job %d: integrate to %v before last update %v", j.ID, t, j.lastUpdate))
	}
	dt := float64(t - j.lastUpdate)
	j.remaining -= dt * j.rate
	if j.rate < 1 {
		j.sharedSeconds += dt
	}
	if j.remaining < 0 {
		// Completion events are scheduled exactly at the projected finish,
		// so any negative residue is float round-off.
		j.remaining = 0
	}
	j.lastUpdate = t
}

// Remaining returns the dedicated-seconds of work left at time t without
// mutating the integrator state.
func (j *Job) Remaining(t des.Time) float64 {
	if j.state != Running {
		if j.state == Pending {
			return float64(j.TrueRuntime)
		}
		return 0
	}
	dt := float64(t - j.lastUpdate)
	rem := j.remaining - dt*j.rate
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ETA returns the projected completion time assuming the current rate holds.
func (j *Job) ETA(t des.Time) des.Time {
	if j.state != Running {
		panic(fmt.Sprintf("job %d: ETA in state %v", j.ID, j.state))
	}
	return t + des.Duration(j.Remaining(t)/j.rate)
}

// roundOff returns how much residual work at time t float64 arithmetic alone
// explains. A completion is scheduled at now + remaining/rate, and the clock
// can only land on a representable instant: at t ≈ 3.5e10 s neighbouring
// instants are 7.6 µs apart, so a job progressing at rate r may reach its
// completion event with a few steps × r of work still on the books. Up to
// t ≈ 1e9 s a step is under 0.12 µs and the floor of one microsecond of work
// — what the simulator always tolerated — is what applies.
func (j *Job) roundOff(t des.Time) float64 {
	step := math.Nextafter(float64(t), math.Inf(1)) - float64(t)
	return math.Max(1e-6, 4*step*j.rate)
}

// WorkDone reports whether the work left at time t is round-off only: the
// job has, to the clock's resolution, completed.
func (j *Job) WorkDone(t des.Time) bool { return j.Remaining(t) < j.roundOff(t) }

// Finish integrates to t and transitions the job to Finished. The residual
// work must be zero up to round-off (see roundOff); a material residue means
// the caller fired the completion event at the wrong time.
func (j *Job) Finish(t des.Time) {
	if j.state != Running {
		panic(fmt.Sprintf("job %d: Finish in state %v", j.ID, j.state))
	}
	j.integrate(t)
	if j.remaining > j.roundOff(t) {
		panic(fmt.Sprintf("job %d: finished with %g seconds of work left", j.ID, j.remaining))
	}
	j.state = Finished
	j.end = t
}

// Kill terminates a running job at time t with work left — the walltime
// enforcer's path. The job's partial progress is integrated (so
// DeliveredWork is meaningful) and then discarded by the batch system.
func (j *Job) Kill(t des.Time) {
	if j.state != Running {
		panic(fmt.Sprintf("job %d: Kill in state %v", j.ID, j.state))
	}
	j.integrate(t)
	j.state = Killed
	j.end = t
}

// DeliveredWork returns the dedicated-seconds of work completed (equal to
// TrueRuntime once finished; partial for killed jobs; as of the last
// integration step while still running).
func (j *Job) DeliveredWork() float64 {
	switch j.state {
	case Pending, Cancelled, Failed:
		return 0
	default:
		return float64(j.TrueRuntime) - j.remaining
	}
}

// Requeue evicts a running job at time t — the node-failure / job-crash /
// scontrol-requeue path — and returns it to Pending for another attempt.
// The attempt's partial progress is integrated, charged to the job's
// lost-work account (failures discard progress; there is no checkpointing),
// and the integrator is reset so the next Start begins from zero.
// It returns the dedicated-seconds of work this eviction discarded.
func (j *Job) Requeue(t des.Time) float64 {
	if j.state != Running {
		panic(fmt.Sprintf("job %d: Requeue in state %v", j.ID, j.state))
	}
	j.integrate(t)
	lost := float64(j.TrueRuntime) - j.remaining
	if lost < 0 {
		lost = 0
	}
	j.lostWork += lost
	j.requeues++
	j.evictedAt = t
	j.state = Pending
	j.start, j.end = 0, 0
	j.remaining = 0
	j.rate = 0
	return lost
}

// Requeues returns how many times the job was evicted and requeued.
func (j *Job) Requeues() int { return j.requeues }

// EvictedAt returns when the job was last evicted (zero if never).
func (j *Job) EvictedAt() des.Time { return j.evictedAt }

// LostWork returns the dedicated-seconds of progress discarded across all of
// the job's evictions.
func (j *Job) LostWork() float64 { return j.lostWork }

// Fail marks a just-requeued (pending) job as permanently failed: its retry
// budget is exhausted and the batch system gives up on it.
func (j *Job) Fail(t des.Time) {
	if j.state != Pending {
		panic(fmt.Sprintf("job %d: Fail in state %v", j.ID, j.state))
	}
	j.state = Failed
	j.end = t
}

// Cancel moves a pending job to Cancelled at time t.
func (j *Job) Cancel(t des.Time) {
	if j.state != Pending {
		panic(fmt.Sprintf("job %d: Cancel in state %v", j.ID, j.state))
	}
	j.state = Cancelled
	j.end = t
}

// WaitTime returns the queue wait (start − submit). Valid once started.
func (j *Job) WaitTime() des.Duration {
	if j.state == Pending || j.state == Cancelled {
		panic(fmt.Sprintf("job %d: WaitTime in state %v", j.ID, j.state))
	}
	return j.start - j.Submit
}

// Turnaround returns end − submit. Valid once finished.
func (j *Job) Turnaround() des.Duration {
	if j.state != Finished {
		panic(fmt.Sprintf("job %d: Turnaround in state %v", j.ID, j.state))
	}
	return j.end - j.Submit
}

// Stretch returns actual execution time divided by the dedicated-node
// runtime — 1.0 for a never-shared job, above 1 when sharing slowed it.
func (j *Job) Stretch() float64 {
	if j.state != Finished {
		panic(fmt.Sprintf("job %d: Stretch in state %v", j.ID, j.state))
	}
	return float64(j.end-j.start) / float64(j.TrueRuntime)
}

// BoundedSlowdown returns the standard scheduling metric
// max(1, turnaround / max(runtime, τ)) with threshold τ guarding against
// tiny jobs dominating the average. Runtime here is the job's actual
// execution span.
func (j *Job) BoundedSlowdown(tau des.Duration) float64 {
	if j.state != Finished {
		panic(fmt.Sprintf("job %d: BoundedSlowdown in state %v", j.ID, j.state))
	}
	run := float64(j.end - j.start)
	if run < float64(tau) {
		run = float64(tau)
	}
	s := float64(j.Turnaround()) / run
	if s < 1 {
		return 1
	}
	return s
}

// EverShared reports whether the job ever ran at a reduced rate.
func (j *Job) EverShared() bool { return j.sharedSeconds > 0 }

// ServiceDemand returns the total work in node-seconds the job represents
// (nodes × dedicated runtime); the computational-efficiency metric sums this
// across finished jobs.
func (j *Job) ServiceDemand() float64 {
	return float64(j.Nodes) * float64(j.TrueRuntime)
}

// String renders a queue-listing line fragment.
func (j *Job) String() string {
	return fmt.Sprintf("job %d %s app=%s nodes=%d req=%v state=%v",
		j.ID, j.Name, j.App.Name, j.Nodes, j.ReqWalltime, j.state)
}
