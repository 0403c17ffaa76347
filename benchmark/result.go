package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// result collects what one measured phase produced: metric values by their
// BENCHMARK.json names, the operation counts the driver's contract asks for,
// and every correctness check that failed.
type result struct {
	values map[string]float64
	// notes carry what a single number cannot: quartiles, repetition and
	// sample counts. They are printed beside the metric, never parsed.
	notes map[string]string

	attempted, failed int
	problems          []string

	// headlineMS is the workload's own headline time (median repetition,
	// pass or campaign wall time; median submit latency for the controller).
	// It is the traced÷untraced yardstick, and it fills the time-valued
	// end-to-end slots that do not apply to this workload (see README,
	// "Slots that do not apply").
	headlineMS float64
	// digest is the SHA-256 of the phase's simulated output, compared across
	// repetitions, across traced and untraced phases, and against golden.json.
	digest string
	// pinned says the digest is a pure function of the seed, so golden.json
	// pins it at the default seed.
	pinned bool
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// problem records a failed correctness check; the run still prints its
// numbers but reports correct=false and exits non-zero.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops adds operations to the attempted/failed tally.
func (r *result) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) names() []string {
	names := make([]string, 0, len(r.values))
	for k := range r.values {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// finite reports the first metric whose value is NaN or infinite.
func (r *result) finite() error {
	for _, k := range r.names() {
		if v := r.values[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// throughput is work ÷ median repetition wall time, with the quartiles and the
// repetition count as its note.
func (r *result) throughput(name string, work float64, walls []time.Duration) {
	secs := seconds(walls)
	med := stats.Median(secs)
	r.set(name, work/med)
	r.note(name, "work %.0f per repetition; wall s q1 %.4f median %.4f q3 %.4f; %d timed repetitions",
		work, stats.Percentile(secs, 25), med, stats.Percentile(secs, 75), len(secs))
	r.headlineMS = med * 1e3
}

// latency sets a median and a named tail percentile, in milliseconds, and
// notes the sample count and the highest percentile the sample supports (ten
// samples beyond it).
func (r *result) latency(p50Name, tailName string, tailP float64, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	if p50Name != "" {
		r.set(p50Name, stats.Median(ms))
		r.note(p50Name, "%d samples", len(ms))
	}
	if tailName != "" {
		r.set(tailName, stats.Percentile(ms, tailP))
		r.note(tailName, "%d samples; highest supported percentile p%.4g", len(ms), supportedTail(len(ms)))
	}
}

// supportedTail is the highest percentile with at least ten samples beyond it.
func supportedTail(n int) float64 {
	if n <= 10 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return stats.Median(vs)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(stats.Median(seconds(ds)) * float64(time.Second))
}
