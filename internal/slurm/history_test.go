package slurm

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// referenceHistory is Controller.History before the controller kept its
// terminal jobs in ID order: a row for every finished, killed and rejected
// job, then one sort of all of them.
func referenceHistory(c *Controller) []JobInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []JobInfo
	add := func(j *job.Job) {
		info := JobInfo{
			ID: int64(j.ID), Name: j.Name, App: j.App.Name,
			State: j.State().String(), Nodes: j.Nodes,
			Submit: float64(j.Submit), Limit: float64(j.ReqWalltime),
			End: float64(j.EndTime()),
		}
		if j.State() == job.Finished {
			info.Start = float64(j.StartTime())
			info.Shared = j.EverShared()
		}
		out = append(out, info)
	}
	for _, j := range c.eng.Finished() {
		add(j)
	}
	for _, j := range c.eng.Killed() {
		add(j)
	}
	for _, j := range c.eng.Rejected() {
		add(j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// referencePaginate is the queue reply's paging before it was split into a
// window and its application: it cut the window out of every row.
func referencePaginate(jobs []JobInfo, req Request, over OverloadConfig, level int) Response {
	limit := req.Limit
	explicit := req.Limit > 0 || req.Offset > 0
	if limit <= 0 && req.History {
		limit = over.HistoryLimit
	}
	if level >= BrownoutPaged && req.History {
		if bound := cmp.Or(over.BrownoutHistoryLimit, DefaultBrownoutHistoryLimit); limit <= 0 || limit > bound {
			limit = bound
			explicit = true
		}
	}
	if !explicit && (limit <= 0 || len(jobs) <= limit) {
		return Response{OK: true, Jobs: jobs}
	}
	total := len(jobs)
	jobs = jobs[min(max(req.Offset, 0), total):]
	if limit > 0 && len(jobs) > limit {
		jobs = jobs[:limit]
	}
	return Response{OK: true, Jobs: jobs, Total: total}
}

// historyConfig is the test machine with a retry budget of zero: an
// operator requeue or a node going down fails the job it evicts, and the
// engine lists it with the killed.
func historyConfig() Config {
	cfg := testControllerConfig()
	cfg.Fault.MaxRetries = 0
	return cfg
}

// withStrictLimits swaps c's engine, before any work, for one that kills a
// job at its walltime. The controller has no key for it, so only a live,
// unjournaled controller can run this way.
func withStrictLimits(t *testing.T, c *Controller) {
	t.Helper()
	sc := c.cfg.scenario()
	sc.StrictLimits = true
	eng, err := sc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	c.eng = eng
}

// driveHistory runs a seeded operation mix against c and calls check after
// every step and once more after a final drain. Submissions need 70–100 %
// of their walltime at full speed, so sharing pushes some past it; a
// quarter of them wait on an earlier job, and the
// mix cancels pending jobs (which dooms their dependents), requeues running
// ones and takes nodes down: jobs finish, are killed, fail, are cancelled
// and are rejected, and they reach those states out of ID order.
func driveHistory(t *testing.T, c *Controller, seed uint64, steps int, check func(step int)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 36))
	apps := []string{"minife", "gtc", "milc"}
	var ids []cluster.JobID
	pick := func(state string) (cluster.JobID, bool) {
		var match []cluster.JobID
		for _, q := range c.Queue() {
			if q.State == state && q.Reason == "" { // a held job is not in the queue proper
				match = append(match, cluster.JobID(q.ID))
			}
		}
		if len(match) == 0 {
			return 0, false
		}
		return match[rng.IntN(len(match))], true
	}
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(10); {
		case op < 5:
			for range 1 + rng.IntN(4) {
				wall := des.Duration(600 + rng.IntN(3600))
				runtime := des.Duration(float64(wall) * (0.7 + 0.3*rng.Float64()))
				var after []cluster.JobID
				if len(ids) > 0 && rng.IntN(4) == 0 {
					after = append(after, ids[rng.IntN(len(ids))])
				}
				id, err := c.Submit(apps[rng.IntN(len(apps))], 1+rng.IntN(2), wall, runtime, "", after...)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		case op < 8:
			advance(t, c, des.Duration(60+rng.IntN(1800)))
		case op == 8:
			if id, ok := pick("PENDING"); ok {
				if err := c.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
			if id, ok := pick("RUNNING"); ok {
				if err := c.Requeue(id); err != nil {
					t.Fatal(err)
				}
			}
		default:
			ni := rng.IntN(c.cfg.Machine.Nodes)
			if err := c.DownNode(ni); err != nil {
				t.Fatal(err)
			}
			advance(t, c, 30)
			if err := c.UpNode(ni); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
	drain(t, c)
	check(steps)
}

// pageTable is every queue request the differential tries: history and
// live, offsets from 0 to past the end, limits from none to more than
// there are rows.
func pageTable(total int) []Request {
	var reqs []Request
	for _, history := range []bool{true, false} {
		for _, offset := range []int{0, 1, 3, total - 1, total, total + 5, 1 << 20} {
			for _, limit := range []int{0, 1, 4, 100} {
				reqs = append(reqs, Request{Op: "queue", History: history, Offset: max(offset, 0), Limit: limit})
			}
		}
	}
	return reqs
}

// checkPages serves every request of the table at every brownout level up
// to STALE and with a HistoryLimit of 0 and 5, through a fresh server's
// handleB, and holds each reply JSON-identical to the reference: the old
// paging over Queue() followed by the old History(). At STALE the first
// read of each kind fills the snapshot and the rest are served from it.
func checkPages(t *testing.T, c *Controller, what string) {
	t.Helper()
	ref := append(c.Queue(), referenceHistory(c)...)
	live := c.Queue()
	for _, historyLimit := range []int{0, 5} {
		for _, level := range []int{BrownoutNormal, BrownoutPaged, BrownoutStale} {
			srv := NewServer(c)
			srv.adm.over.HistoryLimit = historyLimit
			srv.adm.over.BrownoutHistoryLimit = 7
			srv.adm.staleFor = time.Hour
			for _, req := range pageTable(len(ref)) {
				rows := live
				if req.History {
					rows = ref
				}
				got, err := json.Marshal(srv.handleB(req, ticket{a: srv.adm, level: level}))
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(referencePaginate(rows, req, srv.adm.over, level))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s: HistoryLimit %d, level %s, %+v:\n got %s\nwant %s",
						what, historyLimit, brownoutName(level), req, got, want)
				}
			}
		}
	}
}

// TestQueuePagesMatchReference: on a controller whose jobs finish, hit
// their walltime, fail, are cancelled and are rejected, every page of every
// queue read at NORMAL, PAGED and STALE equals the pre-index reply, after
// every step of the run. It holds in three states: live (with strict
// walltime limits), after journal replay, and on an HA standby after a full
// resync that replaces a history of its own.
func TestQueuePagesMatchReference(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		c, err := NewController(historyConfig())
		if err != nil {
			t.Fatal(err)
		}
		withStrictLimits(t, c)
		// A view handed out before later completions are indexed renders
		// as it did when it was taken: the index is never edited under it.
		var held queueView
		var heldJSON string
		render := func(v queueView) string {
			b, err := json.Marshal(v.rows(0, len(v.live)+len(v.done)))
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		heldJSON = render(held)
		driveHistory(t, c, 1, 60, func(step int) {
			checkPages(t, c, fmt.Sprintf("live step %d", step))
			if got := render(held); got != heldJSON {
				t.Fatalf("the view taken before step %d changed:\n got %s\nwant %s", step, got, heldJSON)
			}
			held = c.queueView(true)
			heldJSON = render(held)
		})
		var killed int
		for _, h := range c.History() {
			if h.State == "KILLED" {
				killed++
			}
		}
		if killed == 0 {
			t.Fatal("the run hit no walltime limit: the table never pages a killed job")
		}
	})

	dir := t.TempDir()
	primary, err := OpenJournaled(historyConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveHistory(t, primary, 2, 60, func(step int) {
		if step%10 == 0 {
			checkPages(t, primary, fmt.Sprintf("journaled step %d", step))
		}
	})
	states := map[string]int{}
	for _, h := range primary.History() {
		states[h.State]++
	}
	for _, s := range []string{"FINISHED", "FAILED", "CANCELLED"} {
		if states[s] == 0 {
			t.Fatalf("the journaled run has no %s job: %v", s, states)
		}
	}
	entries := primary.entries
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("replayed", func(t *testing.T) {
		c, err := OpenJournaled(historyConfig(), dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		checkPages(t, c, "replayed")
	})

	t.Run("standby after full resync", func(t *testing.T) {
		standby, err := NewController(historyConfig())
		if err != nil {
			t.Fatal(err)
		}
		driveHistory(t, standby, 3, 20, func(int) {})
		checkPages(t, standby, "standby before resync") // its own history is indexed
		standby.mu.Lock()
		err = standby.resetFromLogLocked(entries)
		standby.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		checkPages(t, standby, "standby after resync")
	})
}
