package swf

import (
	"repro/internal/report"
	"repro/internal/stats"
)

// TraceStats summarizes a trace's workload character — the numbers one
// checks before replaying a foreign trace against a machine configuration.
type TraceStats struct {
	// Records counts all entries; Usable counts the ones replay keeps
	// (completed, with a positive runtime).
	Records, Usable int
	// SpanSeconds is the submission window of usable records.
	SpanSeconds float64
	// Procs, Runtimes, Interarrivals, Requests summarize the usable
	// records' processor counts, runtimes, interarrival gaps, and
	// walltime-request accuracy (request / runtime).
	Procs, Runtimes, Interarrivals, Accuracy stats.Summary
	// Users counts distinct user IDs (−1 entries excluded).
	Users int
	// WithDependencies counts records carrying a preceding-job link.
	WithDependencies int
}

// Analyze computes TraceStats.
func Analyze(t *Trace) TraceStats {
	out := TraceStats{Records: len(t.Records)}
	var procs, runtimes, gaps, accuracy []float64
	users := map[int]bool{}
	lastSubmit := -1.0
	for _, r := range t.Records {
		if r.Status == 0 || r.Status == 5 || r.RunTime <= 0 {
			continue
		}
		out.Usable++
		p := r.ReqProcs
		if p <= 0 {
			p = r.UsedProcs
		}
		procs = append(procs, float64(p))
		runtimes = append(runtimes, r.RunTime)
		if r.ReqTime > 0 {
			accuracy = append(accuracy, r.ReqTime/r.RunTime)
		}
		if lastSubmit >= 0 {
			gaps = append(gaps, r.SubmitTime-lastSubmit)
		}
		lastSubmit = r.SubmitTime
		if r.UserID >= 0 {
			users[r.UserID] = true
		}
		if r.PrecedingJob > 0 {
			out.WithDependencies++
		}
	}
	if out.Usable > 0 {
		first := -1.0
		for _, r := range t.Records {
			if r.Status == 0 || r.Status == 5 || r.RunTime <= 0 {
				continue
			}
			if first < 0 {
				first = r.SubmitTime
			}
		}
		out.SpanSeconds = lastSubmit - first
	}
	out.Procs = stats.Summarize(procs)
	out.Runtimes = stats.Summarize(runtimes)
	out.Interarrivals = stats.Summarize(gaps)
	out.Accuracy = stats.Summarize(accuracy)
	out.Users = len(users)
	return out
}

// Render formats the statistics as a table.
func (s TraceStats) Render() *report.Table {
	t := report.New("SWF trace statistics",
		"quantity", "mean", "p50", "p95", "max")
	row := func(name string, sum stats.Summary) {
		t.Add(name,
			report.F(sum.Mean, 1), report.F(sum.P50, 1),
			report.F(sum.P95, 1), report.F(sum.Max, 1))
	}
	row("processors/job", s.Procs)
	row("runtime (s)", s.Runtimes)
	row("interarrival (s)", s.Interarrivals)
	row("request/runtime", s.Accuracy)
	t.AddNote("%d records (%d usable for replay), %d users, %d with dependencies, span %.1f h",
		s.Records, s.Usable, s.Users, s.WithDependencies, s.SpanSeconds/3600)
	return t
}
