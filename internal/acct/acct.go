// Package acct is the job-accounting layer: per-job completion records in a
// JSON-lines format (the role sacct/slurmdbd play for SLURM), with a reader
// and aggregate summaries. Accounting files let completed runs be analyzed
// (or re-analyzed) without re-simulation, and give the tooling a stable
// interchange format.
package acct

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/job"
	"repro/internal/report"
	"repro/internal/stats"
)

// Record is one job's accounting entry.
type Record struct {
	JobID   int64   `json:"job_id"`
	Name    string  `json:"name"`
	App     string  `json:"app"`
	Nodes   int     `json:"nodes"`
	Submit  float64 `json:"submit"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Limit   float64 `json:"limit"`
	State   string  `json:"state"` // FINISHED | KILLED | CANCELLED | FAILED
	Shared  bool    `json:"shared"`
	Stretch float64 `json:"stretch,omitempty"` // execution / dedicated runtime
	Work    float64 `json:"work"`              // delivered node-seconds
	// Requeues and Lost record the job's failure history: how many times it
	// was evicted and requeued, and the node-seconds of partial progress
	// those evictions discarded.
	Requeues int     `json:"requeues,omitempty"`
	Lost     float64 `json:"lost,omitempty"`
}

// FromJob builds the accounting record of a completed (finished, killed,
// cancelled, or failed) job. It panics on pending/running jobs: accounting
// happens at completion.
func FromJob(j *job.Job) Record {
	r := Record{
		JobID:    int64(j.ID),
		Name:     j.Name,
		App:      j.App.Name,
		Nodes:    j.Nodes,
		Submit:   float64(j.Submit),
		Limit:    float64(j.ReqWalltime),
		State:    j.State().String(),
		Requeues: j.Requeues(),
		Lost:     float64(j.Nodes) * j.LostWork(),
	}
	switch j.State() {
	case job.Finished:
		r.Start = float64(j.StartTime())
		r.End = float64(j.EndTime())
		r.Shared = j.EverShared()
		r.Stretch = j.Stretch()
		r.Work = float64(j.Nodes) * j.DeliveredWork()
	case job.Killed:
		r.Start = float64(j.StartTime())
		r.End = float64(j.EndTime())
		r.Shared = j.EverShared()
		r.Work = 0 // killed work is discarded
	case job.Cancelled:
		r.End = float64(j.EndTime())
	case job.Failed:
		// A failed job's last attempt was requeued before the give-up, so
		// its start is reset; only the end (give-up time) is meaningful.
		r.End = float64(j.EndTime())
		r.Shared = j.EverShared()
	default:
		panic(fmt.Sprintf("acct: job %d still %v", j.ID, j.State()))
	}
	return r
}

// FromJobs converts a batch, sorted by job ID.
func FromJobs(jobs []*job.Job) []Record {
	out := make([]Record, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, FromJob(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].JobID < out[k].JobID })
	return out
}

// Write serializes records as JSON lines.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("acct: encode job %d: %w", r.JobID, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines accounting stream.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("acct: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("acct: read: %w", err)
	}
	return out, nil
}

// Summary aggregates records per application into a rendered table: job,
// shared and killed counts over every record; wait and stretch means over the
// FINISHED ones; and node-hours of delivered work, which is FINISHED work only
// (a KILLED or FAILED job's occupancy is not counted). An application none of
// whose jobs finished has no wait or stretch to average: its means read n/a.
func Summary(records []Record) *report.Table {
	type agg struct {
		count, shared, killed int
		waits, stretches      []float64
		nodeHours             float64
	}
	byApp := map[string]*agg{}
	for _, r := range records {
		a := byApp[r.App]
		if a == nil {
			a = &agg{}
			byApp[r.App] = a
		}
		a.count++
		if r.Shared {
			a.shared++
		}
		switch r.State {
		case "KILLED", "FAILED":
			a.killed++
		case "FINISHED":
			a.waits = append(a.waits, r.Start-r.Submit)
			if r.Stretch > 0 {
				a.stretches = append(a.stretches, r.Stretch)
			}
			a.nodeHours += r.Work / 3600
		}
	}
	apps := make([]string, 0, len(byApp))
	for name := range byApp {
		apps = append(apps, name)
	}
	sort.Strings(apps)

	t := report.New("accounting summary by application",
		"app", "jobs", "shared", "killed", "wait mean(s)", "stretch mean", "node-hours")
	for _, name := range apps {
		a := byApp[name]
		t.Add(
			name,
			fmt.Sprintf("%d", a.count),
			fmt.Sprintf("%d", a.shared),
			fmt.Sprintf("%d", a.killed),
			meanOrNA(a.waits, 0),
			meanOrNA(a.stretches, 3),
			report.F(a.nodeHours, 1),
		)
	}
	return t
}

// meanOrNA renders the mean of xs, or n/a when there is nothing to average.
func meanOrNA(xs []float64, places int) string {
	if len(xs) == 0 {
		return "n/a"
	}
	return report.F(stats.Mean(xs), places)
}
