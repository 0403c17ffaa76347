package sim

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// referenceCompute is metrics.Compute as it stood before the engine kept its
// samples between calls: every sample rebuilt from the finished jobs and the
// pass times, and summarized whole. stats.Summarize is the one-shot summary
// the stats package holds, bit for bit, to the summary of that time.
func referenceCompute(e *Engine, raw metrics.Result) metrics.Result {
	r := raw
	r.Finished = len(e.finished)
	var waits, slowdowns, stretches []float64
	r.TotalDemand = 0
	for _, j := range e.finished {
		r.TotalDemand += j.ServiceDemand()
		waits = append(waits, float64(j.WaitTime()))
		slowdowns = append(slowdowns, j.BoundedSlowdown(metrics.BoundedSlowdownTau))
		stretches = append(stretches, j.Stretch())
	}
	r.Wait = stats.Summarize(waits)
	r.Slowdown = stats.Summarize(slowdowns)
	r.Stretch = stats.Summarize(stretches)
	if r.BusyNodeSeconds > 0 {
		r.CompEfficiency = r.TotalDemand / r.BusyNodeSeconds
		r.SharedFraction = r.SharedNodeSeconds / r.BusyNodeSeconds
	}
	if r.Makespan > 0 && r.Nodes > 0 {
		ideal := r.TotalDemand / float64(r.Nodes)
		r.SchedEfficiency = ideal / float64(r.Makespan)
		r.Utilization = r.BusyNodeSeconds / (float64(r.Nodes) * float64(r.Makespan))
	}
	nanos := make([]float64, len(e.decisionTimes))
	for i, d := range e.decisionTimes {
		nanos[i] = float64(d.Nanoseconds())
	}
	r.DecisionNanos = stats.Summarize(nanos)
	if charged := r.TotalDemand + r.LostNodeSeconds + r.WastedNodeSeconds; charged > 0 {
		r.Goodput = r.TotalDemand / charged
	}
	return r
}

// rawOf is r with every field Compute derives zeroed: the raw observations
// Result handed it.
func rawOf(r metrics.Result) metrics.Result {
	r.Finished, r.TotalDemand = 0, 0
	r.Wait, r.Slowdown, r.Stretch, r.DecisionNanos = stats.Summary{}, stats.Summary{}, stats.Summary{}, stats.Summary{}
	r.CompEfficiency, r.SharedFraction, r.SchedEfficiency, r.Utilization, r.Goodput = 0, 0, 0, 0, 0
	return r
}

// TestResultMatchesReference steps every golden configuration and calls
// Result after every k events, k cycling through 1, 2, 5 and 13 so the
// samples grow by nothing, by one job and by many between calls. Each Result
// must print, at full precision, exactly as the reference computed from
// scratch prints; and the run must still reproduce its recorded digest, so
// the calls change nothing of the run.
func TestResultMatchesReference(t *testing.T) {
	want := readGolden(t)
	strides := []int{1, 2, 5, 13}
	for ci, c := range goldenConfigs() {
		e, _ := c.build(t)
		calls, next, events := 0, 0, 0
		check := func() {
			got := e.Result()
			if ref := referenceCompute(e, rawOf(got)); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", ref) {
				t.Fatalf("%s: after event %d, Result\n%#v\nreference\n%#v", c.name, events, got, ref)
			}
			calls++
			next = events + strides[(ci+calls)%len(strides)]
		}
		for e.sim.Step() {
			if events++; events >= next {
				check()
			}
		}
		e.account(e.sim.Now())
		check()
		if got := placementDigest(e); got != want[c.name] {
			t.Errorf("%s: digest %s with Result called %d times on the way, recorded %s", c.name, got, calls, want[c.name])
		}
	}
}
