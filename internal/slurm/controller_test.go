package slurm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

func testControllerConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine = cluster.Config{Nodes: 4, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 128 * 1024}
	cfg.Partition = Partition{Name: "batch", MaxTime: des.Day, MaxNodes: 4}
	return cfg
}

func TestControllerSubmitAndDrain(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctl.Submit("minife", 2, 3600, 1800, "fe1")
	if err != nil {
		t.Fatal(err)
	}
	if id == cluster.NoJob {
		t.Fatal("no ID assigned")
	}
	// The job is visible and RUNNING right after submit (resources free).
	q := ctl.Queue()
	if len(q) != 1 || q[0].State != "RUNNING" {
		t.Fatalf("queue = %+v", q)
	}
	drain(t, ctl)
	if got := len(ctl.Queue()); got != 0 {
		t.Fatalf("queue after drain = %d", got)
	}
	hist := ctl.History()
	if len(hist) != 1 || hist[0].State != "FINISHED" {
		t.Fatalf("history = %+v", hist)
	}
	st := ctl.Stats()
	if st.Finished != 1 {
		t.Fatalf("stats finished = %d", st.Finished)
	}
}

func TestControllerPartitionLimits(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Submit("minife", 2, 2*des.Day, 0, ""); err == nil {
		t.Fatal("over-MaxTime submission accepted")
	}
	if _, err := ctl.Submit("minife", 5, 3600, 0, ""); err == nil {
		t.Fatal("over-MaxNodes submission accepted")
	}
	if _, err := ctl.Submit("no-such-app", 1, 3600, 0, ""); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// A submit without a runtime runs for 60 % of its walltime, and one without
// a name is called <app>-<id>.
func TestControllerSubmitDefaults(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctl.Submit("minife", 2, 1000, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if q := ctl.Queue(); len(q) != 1 || q[0].Name != fmt.Sprintf("minife-%d", id) {
		t.Fatalf("queue = %+v, want one job named minife-%d", q, id)
	}
	drain(t, ctl)
	if h := ctl.History(); len(h) != 1 || h[0].End-h[0].Start != 600 {
		t.Fatalf("history = %+v, want one job that ran 600s", h)
	}
}

// A zero walltime is refused before an ID is taken, with these reply bytes;
// zero nodes is refused by the engine after one is, so the next submit
// skips it.
func TestControllerSubmitRefusals(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, addr := refusalServer(t, ctl, nil)
	w := dialRaw(t, addr)
	want := `{"ok":false,"error":"slurm: job needs a positive walltime, got 00:00:00.000","now":0}`
	if got := w.ask(`{"op":"submit","app":"minife","nodes":1}`); got != want {
		t.Fatalf("zero walltime reply\n got %s\nwant %s", got, want)
	}
	if _, err := ctl.Submit("minife", 0, 3600, 0, ""); err == nil {
		t.Fatal("zero-node submission accepted")
	}
	if id, err := ctl.Submit("minife", 1, 3600, 0, ""); err != nil || id != 2 {
		t.Fatalf("next submit = %d, %v; want ID 2 (the refused one burned 1)", id, err)
	}
}

func TestControllerAdvance(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Submit("gtc", 4, 7200, 3600, ""); err != nil {
		t.Fatal(err)
	}
	now := advance(t, ctl, 1800)
	if now != 1800 {
		t.Fatalf("Advance → %v", now)
	}
	q := ctl.Queue()
	if len(q) != 1 || q[0].State != "RUNNING" {
		t.Fatalf("queue at t=1800: %+v", q)
	}
	advance(t, ctl, 1801)
	if len(ctl.Queue()) != 0 {
		t.Fatal("job still queued after its runtime elapsed")
	}
	// Negative advance is a no-op.
	if got := advance(t, ctl, -5); got != ctl.Now() {
		t.Fatal("negative advance moved the clock")
	}
}

func TestControllerCancel(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Policy = "easy" // exclusive, so the second job stays pending
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the machine, then queue one more and cancel it.
	if _, err := ctl.Submit("gtc", 4, 7200, 3600, "big"); err != nil {
		t.Fatal(err)
	}
	id, err := ctl.Submit("minife", 2, 3600, 1800, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Cancel(id); err != nil {
		t.Fatalf("cancel pending job: %v", err)
	}
	if err := ctl.Cancel(id); err == nil {
		t.Fatal("double cancel accepted")
	}
	hist := ctl.History()
	found := false
	for _, j := range hist {
		if j.ID == int64(id) && j.State == "CANCELLED" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cancelled job missing from history: %+v", hist)
	}
}

func TestControllerNodes(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Policy = "sharefirstfit"
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Submit("minife", 4, 7200, 3600, "host"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Submit("minimd", 4, 7200, 3600, "guest"); err != nil {
		t.Fatal(err)
	}
	nodes := ctl.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	shared := 0
	for _, n := range nodes {
		if n.State == "shared" {
			shared++
			if len(n.Jobs) != 2 {
				t.Fatalf("shared node lists %d jobs", len(n.Jobs))
			}
		}
	}
	if shared != 4 {
		t.Fatalf("shared nodes = %d, want 4 (complementary pair co-allocated)", shared)
	}
}

func TestPriorityOrdering(t *testing.T) {
	c := DefaultPriorityConfig()
	// Older job outranks newer.
	older := mkPrioJob(t, 1, 2, 0)
	newer := mkPrioJob(t, 2, 2, 5000)
	less := c.LessWithUsage(func() des.Time { return 10000 }, 32, nil)
	if !less(older, newer) {
		t.Fatal("older job not prioritized")
	}
	// With FavorSmall, a small job outranks a large one at equal age.
	c2 := DefaultPriorityConfig()
	c2.FavorSmall = true
	small := mkPrioJob(t, 3, 1, 0)
	large := mkPrioJob(t, 4, 32, 0)
	less2 := c2.LessWithUsage(func() des.Time { return 100 }, 32, nil)
	if !less2(small, large) {
		t.Fatal("FavorSmall did not prioritize the small job")
	}
	// Default (favor large): large job outranks small at equal age.
	less3 := c.LessWithUsage(func() des.Time { return 100 }, 32, nil)
	if !less3(large, small) {
		t.Fatal("default size weight did not prioritize the large job")
	}
}

func TestPriorityValidate(t *testing.T) {
	bad := []PriorityConfig{
		{WeightAge: -1, MaxAge: 1},
		{WeightJobSize: -1, MaxAge: 1},
		{MaxAge: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad priority config %d accepted", i)
		}
	}
}

func TestFormatters(t *testing.T) {
	jobs := []JobInfo{
		{ID: 1, Name: "a-very-long-job-name", App: "minife", State: "RUNNING",
			Nodes: 2, Shared: true, NodeList: []int{0, 1, 2, 5}, Limit: 3600},
		{ID: 2, Name: "b", App: "minimd", State: "PENDING", Nodes: 1, Limit: 60},
		{ID: 3, Name: "c", App: "amg", State: "PENDING", Nodes: 1, Limit: 60, Reason: "BeginTime"},
	}
	out := Squeue(jobs)
	for _, frag := range []string{"JOBID", "NODELIST(REASON)", "RUNNING", "PENDING", "[0-2,5]", "yes", "  (BeginTime)\n"} {
		if !strings.Contains(out, frag) {
			t.Errorf("squeue output missing %q:\n%s", frag, out)
		}
	}
	nodes := []NodeInfo{
		{ID: 0, State: "shared", Jobs: []int64{1, 2}, FreeThreads: 0, FreeMemMB: 10},
		{ID: 1, State: "idle", FreeThreads: 8, FreeMemMB: 1024},
		{ID: 2, State: "allocated", Jobs: []int64{3}, FreeThreads: 4, FreeMemMB: 99},
	}
	out = Sinfo(nodes)
	for _, frag := range []string{"NODE", "shared", "idle", "1,2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sinfo output missing %q:\n%s", frag, out)
		}
	}
	sum := SinfoSummary(nodes)
	if !strings.Contains(sum, "3 total, 1 idle, 1 allocated, 1 shared") {
		t.Errorf("summary = %q", sum)
	}
}

func TestCompressNodeList(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "[3]"},
		{[]int{0, 1, 2}, "[0-2]"},
		{[]int{0, 2, 3, 7}, "[0,2-3,7]"},
	}
	for _, c := range cases {
		if got := compressNodeList(c.in); got != c.want {
			t.Errorf("compressNodeList(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func mkPrioJob(t *testing.T, id int64, nodes int, submit float64) *job.Job {
	t.Helper()
	a, err := app.ByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	return &job.Job{
		ID: cluster.JobID(id), Name: "p", App: a, Nodes: nodes,
		ReqWalltime: 3600, TrueRuntime: 1800, Submit: des.Time(submit),
	}
}

func TestFairsharePriority(t *testing.T) {
	c := DefaultPriorityConfig()
	c.WeightFairshare = 1000
	usage := func(user string) float64 {
		if user == "hog" {
			return 0.9
		}
		return 0.1
	}
	hogJob := mkPrioJob(t, 1, 2, 0)
	hogJob.User = "hog"
	lightJob := mkPrioJob(t, 2, 2, 0)
	lightJob.User = "light"
	less := c.LessWithUsage(func() des.Time { return 100 }, 32, usage)
	if !less(lightJob, hogJob) {
		t.Fatal("fairshare did not prioritize the light user")
	}
	// Without a usage supplier the factor is inert: equal priorities fall
	// back to the ID tie-break, so the hog (lower ID) ranks first again.
	plain := c.LessWithUsage(func() des.Time { return 100 }, 32, nil)
	if !plain(hogJob, lightJob) {
		t.Fatal("fairshare applied without usage data")
	}
}

func TestUsageFromEngineShares(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Policy = "easy"
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run two jobs to completion; they have no user (empty string bucket),
	// so the usage function must report share 1 for "" and 0 for others.
	if _, err := ctl.Submit("minife", 2, 3600, 1800, "a"); err != nil {
		t.Fatal(err)
	}
	drain(t, ctl)
	usage := UsageFromEngine(ctl.eng)
	if got := usage(""); got != 1 {
		t.Fatalf("usage(\"\") = %g, want 1", got)
	}
	if got := usage("nobody"); got != 0 {
		t.Fatalf("usage(nobody) = %g, want 0", got)
	}
}

func TestParseConfigFairshareKey(t *testing.T) {
	conf := "PriorityWeightFairshare=2500\nNodeName=n[1-2] CPUs=4 ThreadsPerCore=2 RealMemory=1024\n"
	cfg, err := ParseConfig(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Priority.WeightFairshare != 2500 {
		t.Fatalf("WeightFairshare = %g", cfg.Priority.WeightFairshare)
	}
}

func TestDrainAndResumeNode(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Policy = "easy"
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.DrainNode(0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.DrainNode(99); err == nil {
		t.Fatal("out-of-range drain accepted")
	}
	nodes := ctl.Nodes()
	if nodes[0].State != "drained" {
		t.Fatalf("node 0 state = %s", nodes[0].State)
	}
	// A 4-node job cannot start with one node drained…
	id, err := ctl.Submit("minife", 4, 3600, 1800, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ctl.Queue() {
		if j.ID == int64(id) && j.State != "PENDING" {
			t.Fatalf("job started despite drained node: %s", j.State)
		}
	}
	// …and starts as soon as the node resumes.
	if err := ctl.ResumeNode(0); err != nil {
		t.Fatal(err)
	}
	for _, j := range ctl.Queue() {
		if j.ID == int64(id) && j.State != "RUNNING" {
			t.Fatalf("job not started after resume: %s", j.State)
		}
	}
}

func TestProtocolDrainResume(t *testing.T) {
	cl, _ := startServer(t)
	if err := cl.DrainNode(2); err != nil {
		t.Fatal(err)
	}
	nodes, err := cl.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if nodes[2].State != "drained" {
		t.Fatalf("node 2 = %s", nodes[2].State)
	}
	if err := cl.ResumeNode(2); err != nil {
		t.Fatal(err)
	}
	if err := cl.DrainNode(99); err == nil {
		t.Fatal("bad drain accepted over protocol")
	}
}

func TestSubmitWithDependency(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Policy = "easy"
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := ctl.Submit("minife", 2, 3600, 1800, "parent")
	if err != nil {
		t.Fatal(err)
	}
	child, err := ctl.Submit("minimd", 2, 3600, 1800, "child", parent)
	if err != nil {
		t.Fatal(err)
	}
	// Two idle nodes remain, but the child must be dependency-held.
	var childInfo *JobInfo
	for _, j := range ctl.Queue() {
		if j.ID == int64(child) {
			j := j
			childInfo = &j
		}
	}
	if childInfo == nil {
		t.Fatal("held child missing from squeue")
	}
	if childInfo.State != "PENDING" || childInfo.Reason != "Dependency" {
		t.Fatalf("child info = %+v", childInfo)
	}
	// When the parent finishes, the child runs.
	advance(t, ctl, 1801)
	for _, j := range ctl.Queue() {
		if j.ID == int64(child) && j.State != "RUNNING" {
			t.Fatalf("child not running after parent finished: %s", j.State)
		}
	}
	drain(t, ctl)
	if ctl.Stats().Finished != 2 {
		t.Fatalf("finished = %d", ctl.Stats().Finished)
	}
}

// Some forty queued submits, each inside the per-job clock bound, and one
// drain used to take the daemon down: the queued walltimes carry the clock to
// t ≈ 3.5e10 s, where job.Finish's absolute 1 µs tolerance is below the
// clock's resolution (ROADMAP "Clock bound is input-side only"). At PR 17 this
// panicked with "job 38: finished with 3.814697265625e-06 seconds of work
// left".
func TestControllerDrainAtFarClock(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Machine = cluster.Trinity(4)
	cfg.Partition = Partition{Name: "batch"} // no MaxTime: only maxClock bounds a job
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	cat := app.Catalogue() // a mix, so that jobs co-allocate and run at fractional rates
	for i := 0; i < n; i++ {
		if _, err := ctl.Submit(cat[i%len(cat)].Name, 3, 1e9, 0.937e9, ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	now, err := ctl.DrainChecked()
	if err != nil {
		t.Fatal(err)
	}
	if now < 3e10 {
		t.Fatalf("drain ended at %g s; the test no longer exercises a far clock", float64(now))
	}
	if st := ctl.Stats(); st.Finished != n {
		t.Fatalf("finished %d of %d jobs", st.Finished, n)
	}
	// The daemon is still there and still takes work.
	if _, err := ctl.Submit("minife", 1, 3600, 1800, "after"); err != nil {
		t.Fatalf("submit after the far drain: %v", err)
	}
}
