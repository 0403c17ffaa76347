// Package fault models node failures and job crashes for the batch-system
// simulation.
//
// Real SLURM deployments treat failure handling — requeue, drain, controller
// restart from saved state — as table stakes, and node sharing raises the
// stakes: one failed node kills every job co-located there. This package
// supplies the failure *processes*; the simulation engine owns the
// *reaction* (killing victims, requeueing under a retry policy).
//
// Failures are deterministic functions of the configuration seed. Each node
// draws its time-to-failure and time-to-repair from its own named RNG stream
// (derived via des.RNG.Stream), and each job attempt draws its crash fate
// from a stream named by job ID and attempt number. Streams make the trace
// insensitive to event interleaving: the same seed always yields the same
// failure trace, regardless of what the workload does around it.
package fault

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// Config parameterizes the failure model. The zero value injects no faults:
// faults are on exactly when a rate is (Active), and an inactive
// configuration schedules no events and draws no random numbers, so it is
// bit-identical to not having the package at all. Every field means what it
// says — zero retries, backoff or seed is zero, not a default; the defaults
// live in Defaults alone.
type Config struct {
	// MTBF is the per-node mean time between failures in simulated seconds;
	// 0 (or +Inf) disables node failures.
	MTBF float64
	// MTTR is the per-node mean time to repair in simulated seconds, at
	// most MaxDelay.
	MTTR float64
	// Shape is the Weibull shape of the time-to-failure distribution:
	// 1 is exponential (memoryless), <1 models infant mortality, >1 wear-out.
	Shape float64
	// CrashProb is the probability that one job attempt crashes before
	// completing (software failure independent of node hardware); 0 disables
	// job crashes.
	CrashProb float64
	// MaxRetries caps how many times a failed or crashed job is requeued
	// before the system gives up and marks it failed; 0 means no retries.
	MaxRetries int
	// Backoff is the hold applied before a requeued job re-enters the
	// queue, doubling with each retry (exponential backoff); 0 means no
	// hold. It is at most MaxDelay, so the longest hold, BackoffFor(Backoff,
	// 21) ≈ 1.05e15 s, stays finite and printable as a des.Time.
	Backoff des.Duration
	// Seed roots the failure RNG streams.
	Seed uint64
}

// Defaults returns the default configuration: no faults, exponential
// failures once a rate is set, seed 1, and the retry policy (MaxRetries 3,
// 30 s base backoff) the engine applies when injection is off, e.g. for
// operator-forced failures.
func Defaults() Config { return Config{Shape: 1, MaxRetries: 3, Backoff: 30, Seed: 1} }

// MaxDelay bounds the repair time and the base backoff, in simulated
// seconds: the ceiling workload puts on an offered load.
const MaxDelay = 1e9

// Validate reports whether the configuration is usable. While node failures
// are on, the repair time must be in (0, MaxDelay] and the Weibull shape
// positive and finite, with a positive finite time-to-failure scale (for a
// shape below ≈ 0.0058 the Gamma function overflows and the scale is 0).
func (c Config) Validate() error {
	switch {
	case !(c.MTBF >= 0):
		return fmt.Errorf("fault: MTBF %g is not non-negative", c.MTBF)
	case !(c.MTTR >= 0):
		return fmt.Errorf("fault: MTTR %g is not non-negative", c.MTTR)
	case !(c.Shape >= 0):
		return fmt.Errorf("fault: Weibull shape %g is not non-negative", c.Shape)
	case c.nodeFailures() && !(c.MTTR > 0 && c.MTTR <= MaxDelay):
		return fmt.Errorf("fault: node failures need an MTTR in (0, %g], got %g", float64(MaxDelay), c.MTTR)
	case c.nodeFailures() && !positiveFinite(c.Shape):
		return fmt.Errorf("fault: node failures need a positive finite Weibull shape, got %g", c.Shape)
	case c.nodeFailures() && !positiveFinite(c.weibullScale()):
		return fmt.Errorf("fault: MTBF %g at Weibull shape %g leaves a time-to-failure scale of %g",
			c.MTBF, c.Shape, c.weibullScale())
	case !(c.CrashProb >= 0 && c.CrashProb <= 1):
		return fmt.Errorf("fault: crash probability %g outside [0,1]", c.CrashProb)
	case c.MaxRetries < 0:
		return fmt.Errorf("fault: negative retry budget %d", c.MaxRetries)
	case !(c.Backoff >= 0 && c.Backoff <= MaxDelay):
		return fmt.Errorf("fault: backoff %g outside [0, %g]", float64(c.Backoff), float64(MaxDelay))
	}
	return nil
}

// weibullScale is the time-to-failure scale that gives a mean of MTBF.
func (c Config) weibullScale() float64 { return c.MTBF / math.Gamma(1+1/c.Shape) }

// Active reports whether the configuration injects any faults at all.
func (c Config) Active() bool { return c.nodeFailures() || c.CrashProb > 0 }

func (c Config) nodeFailures() bool {
	return c.MTBF > 0 && !math.IsInf(c.MTBF, 1)
}

// positiveFinite reports whether x is a number above zero and below +Inf.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// EventKind tags one failure-trace entry.
type EventKind string

// Trace entry kinds.
const (
	NodeFail   EventKind = "fail"
	NodeRepair EventKind = "repair"
)

// Event is one entry of the failure trace: node ni changed state at T.
type Event struct {
	T    des.Time
	Node int
	Kind EventKind
}

// String renders a trace line.
func (e Event) String() string { return fmt.Sprintf("[%s] %s node %d", e.T, e.Kind, e.Node) }

// Injector drives the failure processes on a discrete-event simulator. It is
// built once per engine and owns the per-node RNG streams and the failure
// trace.
type Injector struct {
	cfg   Config
	root  *des.RNG
	nodes []*des.RNG
	trace []Event
}

// NewInjector builds an injector for a machine of the given size. The
// configuration must validate.
func NewInjector(cfg Config, nodes int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg, root: des.NewRNG(cfg.Seed)}
	in.nodes = make([]*des.RNG, nodes)
	for i := range in.nodes {
		in.nodes[i] = in.root.Stream(fmt.Sprintf("fault/node/%d", i))
	}
	return in, nil
}

// Install schedules the first failure of every node. fail and repair are the
// engine's reaction callbacks; workRemains gates rescheduling so an otherwise
// drained simulation terminates — once no workload remains, a due failure is
// dropped instead of fired, and no further failures are scheduled. Pending
// repairs always fire, so the machine ends the run whole.
func (in *Injector) Install(s *des.Simulator, fail, repair func(node int), workRemains func() bool) {
	if !in.cfg.nodeFailures() {
		return
	}
	for ni := range in.nodes {
		in.scheduleFail(s, ni, fail, repair, workRemains)
	}
}

func (in *Injector) scheduleFail(s *des.Simulator, ni int, fail, repair func(int), workRemains func() bool) {
	ttf := in.nodes[ni].Weibull(in.cfg.Shape, in.cfg.weibullScale())
	s.ScheduleIn(des.Duration(ttf), func(s *des.Simulator) {
		if !workRemains() {
			return // quiesce: no workload left to disturb
		}
		in.trace = append(in.trace, Event{T: s.Now(), Node: ni, Kind: NodeFail})
		fail(ni)
		ttr := in.nodes[ni].Exp(in.cfg.MTTR)
		s.ScheduleIn(des.Duration(ttr), func(s *des.Simulator) {
			in.trace = append(in.trace, Event{T: s.Now(), Node: ni, Kind: NodeRepair})
			repair(ni)
			in.scheduleFail(s, ni, fail, repair, workRemains)
		})
	})
}

// CrashDraw decides whether the given attempt (0-based) of job id crashes,
// and if so at which fraction of its requested walltime. The draw is a pure
// function of (seed, id, attempt), so retries redraw independently and the
// decision does not depend on simulation state.
func (in *Injector) CrashDraw(id int64, attempt int) (frac float64, crashes bool) {
	if in.cfg.CrashProb <= 0 {
		return 0, false
	}
	r := in.root.Stream(fmt.Sprintf("fault/crash/%d/%d", id, attempt))
	if r.Float64() >= in.cfg.CrashProb {
		return 0, false
	}
	u := r.Float64()
	if u <= 0 {
		u = 0.5
	}
	return u, true
}

// BackoffFor computes the exponential requeue hold base × 2^(retry−1) for a
// 1-based retry number, capped at 2^20 doublings.
func BackoffFor(base des.Duration, retry int) des.Duration {
	if base <= 0 || retry <= 0 {
		return 0
	}
	if retry > 21 {
		retry = 21
	}
	return base * des.Duration(int64(1)<<(retry-1))
}

// Trace returns a copy of the failure trace in event order.
func (in *Injector) Trace() []Event {
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
}
