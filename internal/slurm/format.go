package slurm

import (
	"fmt"
	"strings"

	"repro/internal/des"
)

// Squeue renders jobs in squeue-like columns. As in SLURM's
// NODELIST(REASON), a held job shows why it waits where a running job shows
// its nodes; a queued job shows neither.
func Squeue(jobs []JobInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %-12s %-10s %-10s %6s %6s %12s %12s  %s\n",
		"JOBID", "NAME", "APP", "STATE", "NODES", "SHARED", "SUBMIT", "TIMELIMIT", "NODELIST(REASON)")
	for _, j := range jobs {
		shared := ""
		if j.Shared {
			shared = "yes"
		}
		nodelist := compressNodeList(j.NodeList)
		if j.Reason != "" {
			nodelist = "(" + j.Reason + ")"
		}
		fmt.Fprintf(&b, "%8d %-12s %-10s %-10s %6d %6s %12s %12s  %s\n",
			j.ID, clip(j.Name, 12), clip(j.App, 10), j.State, j.Nodes, shared,
			des.Time(j.Submit).String(), des.Duration(j.Limit).String(), nodelist)
	}
	return b.String()
}

// Sinfo renders node states in sinfo-like columns.
func Sinfo(nodes []NodeInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %-10s %12s %12s  %s\n", "NODE", "STATE", "FREETHREADS", "FREEMEM(MB)", "JOBS")
	for _, n := range nodes {
		jobs := make([]string, len(n.Jobs))
		for i, id := range n.Jobs {
			jobs[i] = fmt.Sprintf("%d", id)
		}
		fmt.Fprintf(&b, "%6d %-10s %12d %12d  %s\n",
			n.ID, n.State, n.FreeThreads, n.FreeMemMB, strings.Join(jobs, ","))
	}
	return b.String()
}

// SinfoSummary renders the one-line aggregate view.
func SinfoSummary(nodes []NodeInfo) string {
	idle, alloc, shared := 0, 0, 0
	for _, n := range nodes {
		switch n.State {
		case "idle":
			idle++
		case "allocated":
			alloc++
		case "shared":
			shared++
		}
	}
	return fmt.Sprintf("nodes: %d total, %d idle, %d allocated, %d shared",
		len(nodes), idle, alloc, shared)
}

// compressNodeList renders a node ID list with ranges, e.g. [0-3,7].
func compressNodeList(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	var parts []string
	start, prev := ids[0], ids[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, id := range ids[1:] {
		if id == prev+1 {
			prev = id
			continue
		}
		flush()
		start, prev = id, id
	}
	flush()
	return "[" + strings.Join(parts, ",") + "]"
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}
