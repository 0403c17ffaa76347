package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The differential safety net of the allocation-free scheduling pass:
// testdata/placements.golden holds one SHA-256 per configuration, taken over
// every PlacementRecord and the run's Result, and was recorded from the code
// as it stood BEFORE the planner was optimised. A planner change that moves
// one job to another node, another instant or another outcome changes a
// digest. Do not regenerate the file to make a planner change pass.
var updateGolden = flag.Bool("update", false, "rewrite testdata/placements.golden from the current code")

const goldenPath = "testdata/placements.golden"

// goldenConfig is one recorded simulation: policy, offered load, workload
// seed and the engine options under test.
type goldenConfig struct {
	name   string
	policy string
	share  sched.ShareConfig
	load   float64
	seed   uint64
	setup  func(*Config)             // engine options (faults, topology, limits, interval)
	order  func(a, b *job.Job) bool  // SetQueueOrder comparator
	deps   bool                      // add afterok chains to the generated jobs
	smt    int                       // hardware threads per core; 0 keeps Trinity's 2
	check  func(*testing.T, *Engine) // extra assertion that the option actually engaged
}

func (c goldenConfig) machine() cluster.Config {
	m := cluster.Trinity(32)
	if c.smt != 0 {
		m.ThreadsPerCore = c.smt
	}
	return m
}

func goldenConfigs() []goldenConfig {
	var out []goldenConfig
	for _, p := range sched.Names() {
		for _, load := range []float64{0.9, 1.4} {
			for _, seed := range []uint64{11, 12, 13} {
				out = append(out, goldenConfig{
					name:   fmt.Sprintf("%s/load%.1f/seed%d", p, load, seed),
					policy: p, share: sched.DefaultShareConfig(), load: load, seed: seed,
				})
			}
		}
	}
	base := func(name string) goldenConfig {
		return goldenConfig{name: name, policy: "sharebackfill",
			share: sched.DefaultShareConfig(), load: 1.4, seed: 21}
	}

	c := base("faults")
	c.setup = func(cfg *Config) {
		cfg.Faults = fault.Config{MTBF: 60000, MTTR: 600, Shape: 1, CrashProb: 0.03, MaxRetries: 3, Backoff: 30, Seed: 7}
	}
	c.check = func(t *testing.T, e *Engine) {
		if r := e.Result(); r.NodeFailures == 0 || r.JobCrashes == 0 || r.Requeues == 0 {
			t.Errorf("fault configuration is vacuous: %d failures, %d crashes, %d requeues",
				r.NodeFailures, r.JobCrashes, r.Requeues)
		}
	}
	out = append(out, c)

	c = base("faults-shareconservative")
	c.policy = "shareconservative"
	c.setup = func(cfg *Config) {
		cfg.Faults = fault.Config{MTBF: 40000, MTTR: 900, Shape: 1, CrashProb: 0.02, MaxRetries: 3, Backoff: 30, Seed: 9}
	}
	out = append(out, c)

	c = base("topo-locality")
	c.setup = func(cfg *Config) {
		topo := topology.Default(cfg.Cluster.Nodes)
		cfg.Topo, cfg.LocalityAware = &topo, true
	}
	out = append(out, c)

	c = base("topo-locality-easy")
	c.policy = "easy"
	c.setup = func(cfg *Config) {
		topo := topology.Default(cfg.Cluster.Nodes)
		cfg.Topo, cfg.LocalityAware = &topo, true
	}
	out = append(out, c)

	c = base("strict-limits")
	c.setup = func(cfg *Config) { cfg.StrictLimits = true }
	c.check = func(t *testing.T, e *Engine) {
		if len(e.Killed()) == 0 {
			t.Error("strict-limits configuration killed nothing")
		}
	}
	out = append(out, c)

	c = base("sched-interval-30")
	c.setup = func(cfg *Config) { cfg.SchedInterval = 30 }
	out = append(out, c)

	// Smallest node request first, then shortest request, then ID: far from
	// FCFS, and total, so the stable sort has nothing to decide.
	c = base("queue-order")
	c.order = func(a, b *job.Job) bool {
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.ReqWalltime != b.ReqWalltime {
			return a.ReqWalltime < b.ReqWalltime
		}
		return a.ID < b.ID
	}
	out = append(out, c)

	c = base("queue-order-conservative")
	c.policy = "shareconservative"
	c.order = func(a, b *job.Job) bool {
		if a.ReqWalltime != b.ReqWalltime {
			return a.ReqWalltime > b.ReqWalltime
		}
		return a.ID < b.ID
	}
	out = append(out, c)

	c = base("afterok-chains")
	c.deps = true
	out = append(out, c)

	for _, ab := range []struct {
		name string
		edit func(*sched.ShareConfig)
	}{
		{"ablate-pairing-aware", func(s *sched.ShareConfig) { s.PairingAware = false }},
		{"ablate-prefer-shared", func(s *sched.ShareConfig) { s.PreferShared = false }},
		{"ablate-inflation-accounting", func(s *sched.ShareConfig) { s.InflationAccounting = false }},
		{"min-estimated-rate", func(s *sched.ShareConfig) { s.MinEstimatedRate = 0.8 }},
	} {
		for _, p := range []string{"sharefirstfit", "sharebackfill"} {
			c := base(ab.name + "/" + p)
			c.policy = p
			ab.edit(&c.share)
			out = append(out, c)
		}
	}

	// Three jobs to a node on 3-way SMT: pairings against two residents at
	// once, which the planner memoizes apart from the one-resident case.
	for _, p := range []string{"sharefirstfit", "sharebackfill"} {
		c := base("degree-3/" + p)
		c.policy, c.smt = p, 3
		c.share.MaxDegree, c.share.MinComplementarity = 3, 0.2
		c.check = func(t *testing.T, e *Engine) {
			for _, h := range e.History() {
				if h.Shared {
					return
				}
			}
			t.Error("degree-3 configuration shared nothing")
		}
		out = append(out, c)
	}
	return out
}

// build returns the engine and the jobs of one configuration, submitted and
// ready to run.
func (c goldenConfig) build(t testing.TB) (*Engine, []*job.Job) {
	t.Helper()
	jobs, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: 400, Arrival: workload.Poisson,
		Load: c.load, Cluster: c.machine(), RuntimeScale: 0.05, Seed: c.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.deps {
		// Every fifth job waits for the job three ahead of it, and every
		// tenth also for the one seven ahead: chains and joins.
		for i, j := range jobs {
			if i >= 7 && i%5 == 0 {
				j.After = append(j.After, jobs[i-3].ID)
			}
			if i >= 7 && i%10 == 0 {
				j.After = append(j.After, jobs[i-7].ID)
			}
		}
	}
	pol, err := sched.New(c.policy, c.share)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: c.machine(), Policy: pol}
	if c.setup != nil {
		c.setup(&cfg)
	}
	e := New(cfg)
	if c.order != nil {
		e.SetQueueOrder(c.order)
	}
	if err := e.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	return e, jobs
}

// placementDigest hashes where and when every job ran and the run's
// statistics at full float precision (%#v bypasses the millisecond-rounding
// String methods of des.Time and metrics.Result). The scheduler's wall-clock
// pass times are the one host-dependent field and are left out.
func placementDigest(e *Engine) string {
	h := sha256.New()
	for _, p := range e.History() {
		fmt.Fprintf(h, "%d %v %#v %#v %v %d\n",
			p.Job, p.Nodes, float64(p.Start), float64(p.End), p.Shared, int(p.Outcome))
	}
	r := e.Result()
	r.DecisionNanos = stats.Summary{}
	fmt.Fprintf(h, "%#v\n", r)
	return hex.EncodeToString(h.Sum(nil))
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update on the unoptimised planner only)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenPlacements runs every configuration through RunAll and compares
// its digest with the recorded one.
func TestGoldenPlacements(t *testing.T) {
	configs := goldenConfigs()
	got := make([]string, len(configs))
	for i, c := range configs {
		e, _ := c.build(t)
		e.RunAll()
		if n := len(e.heldJobs()); n != 0 {
			t.Errorf("%s: %d jobs still held", c.name, n)
		}
		if c.check != nil {
			c.check(t, e)
		}
		got[i] = placementDigest(e)
	}
	if *updateGolden {
		var b strings.Builder
		for i, c := range configs {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(configs) {
		t.Errorf("%s holds %d digests, the test runs %d configurations", goldenPath, len(want), len(configs))
	}
	for i, c := range configs {
		if want[c.name] != got[i] {
			t.Errorf("%s: placements digest %s, recorded %s", c.name, got[i], want[c.name])
		}
	}
}

// TestInvariantsOnGoldenConfigs drives every golden configuration one event
// at a time and checks the engine invariants INV-1 … INV-5 of DESIGN §6
// after each event. Stepping must also reproduce the recorded digest: the
// checker only reads.
func TestInvariantsOnGoldenConfigs(t *testing.T) {
	want := readGolden(t)
	for _, c := range goldenConfigs() {
		e, jobs := c.build(t)
		chk := newInvariantChecker(e, jobs)
		events := 0
		for e.sim.Step() {
			events++
			if err := chk.check(); err != nil {
				t.Fatalf("%s: after event %d at %v: %v", c.name, events, e.Now(), err)
			}
		}
		e.account(e.sim.Now())
		if e.QueueLen() != 0 || e.RunningLen() != 0 {
			t.Errorf("%s: drained with %d queued and %d running", c.name, e.QueueLen(), e.RunningLen())
		}
		if got := placementDigest(e); got != want[c.name] {
			t.Errorf("%s: stepped run digest %s, recorded %s", c.name, got, want[c.name])
		}
	}
}

// TestInterleavedEnginesMatchGolden advances pairs of engines in lockstep,
// one event each in turn. Each engine owns its planner scratch and its
// buffers; nothing is shared through the policy value, the interference model
// or package state, so interleaving must reproduce the digests each engine
// records when it runs alone.
func TestInterleavedEnginesMatchGolden(t *testing.T) {
	want := readGolden(t)
	byName := map[string]goldenConfig{}
	for _, c := range goldenConfigs() {
		byName[c.name] = c
	}
	for _, pair := range [][2]string{
		{"sharebackfill/load1.4/seed11", "sharebackfill/load1.4/seed12"},
		{"shareconservative/load0.9/seed13", "sharefirstfit/load1.4/seed11"},
		{"faults", "queue-order"},
		{"easy/load1.4/seed12", "topo-locality"},
	} {
		a, _ := byName[pair[0]].build(t)
		b, _ := byName[pair[1]].build(t)
		for moreA, moreB := true, true; moreA || moreB; {
			moreA = moreA && a.sim.Step()
			moreB = moreB && b.sim.Step()
		}
		for i, e := range []*Engine{a, b} {
			e.account(e.sim.Now())
			if got := placementDigest(e); got != want[pair[i]] {
				t.Errorf("%s interleaved with %s: digest %s, recorded %s", pair[i], pair[1-i], got, want[pair[i]])
			}
		}
	}
}

// invariantChecker holds what the per-event checks compare against: the
// previous clock reading and the submitted jobs by ID.
type invariantChecker struct {
	e       *Engine
	byID    map[cluster.JobID]*job.Job
	lastNow des.Time
}

func newInvariantChecker(e *Engine, jobs []*job.Job) *invariantChecker {
	byID := make(map[cluster.JobID]*job.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	return &invariantChecker{e: e, byID: byID, lastNow: e.Now()}
}

// check verifies the numbered engine invariants of DESIGN §6 against the
// engine's current state. It reads through the same accessors users have
// (Pending, Running, Cluster) so it survives a change of the engine's
// internal containers.
func (c *invariantChecker) check() error {
	e := c.e
	// INV-1: the clock never decreases.
	if now := e.Now(); now < c.lastNow {
		return fmt.Errorf("INV-1: clock went from %v back to %v", c.lastNow, now)
	}
	c.lastNow = e.Now()

	running := e.Running()
	pending := e.Pending()
	if len(running) != e.RunningLen() || len(pending) != e.QueueLen() {
		return fmt.Errorf("INV-5: snapshots hold %d running / %d pending, counters say %d / %d",
			len(running), len(pending), e.RunningLen(), e.QueueLen())
	}
	isRunning := make(map[cluster.JobID]*sched.RunningJob, len(running))
	for i, r := range running {
		if i > 0 && running[i-1].Job.ID >= r.Job.ID {
			return fmt.Errorf("INV-5: running snapshot not in strict ID order at %d", i)
		}
		isRunning[r.Job.ID] = r
	}

	// INV-2: resource conservation. What the residents' masks hold, what the
	// per-node counters say, what the free-capacity index answers and what
	// the running set claims are four views of one allocation state.
	cl := e.Cluster()
	maxDegree := 1
	if e.share.Enabled && e.share.MaxDegree > maxDegree {
		maxDegree = e.share.MaxDegree
	}
	busyThreads, busyNodes, sharedNodes := 0, 0, 0
	var idle []int
	holds := map[cluster.JobID][]int{}
	threads, memMB := cl.Config().ThreadsPerNode(), cl.Config().MemoryPerNodeMB
	for ni := 0; ni < cl.Size(); ni++ {
		n := cl.Node(ni)
		// Threads by owner; a node hosts a handful of jobs at most, so a
		// short list beats a map in this per-event scan.
		type share struct {
			id cluster.JobID
			k  int
		}
		var owned []share
		used := 0
		for t := 0; t < threads; t++ {
			o := n.Owner(t)
			if o == cluster.NoJob {
				continue
			}
			used++
			at := 0
			for at < len(owned) && owned[at].id != o {
				at++
			}
			if at == len(owned) {
				owned = append(owned, share{id: o})
			}
			owned[at].k++
		}
		ownsHere := func(id cluster.JobID) bool {
			for _, s := range owned {
				if s.id == id {
					return true
				}
			}
			return false
		}
		if used != threads-n.FreeThreads() {
			return fmt.Errorf("INV-2: node %d owner scan finds %d busy threads, counter says %d",
				ni, used, threads-n.FreeThreads())
		}
		ids := n.Jobs()
		if len(ids) != len(owned) || len(ids) != n.SharingDegree() {
			return fmt.Errorf("INV-2: node %d lists jobs %v, owner scan finds %d, degree %d",
				ni, ids, len(owned), n.SharingDegree())
		}
		mem := 0
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				return fmt.Errorf("INV-2: node %d job list %v not ascending", ni, ids)
			}
			if !ownsHere(id) {
				return fmt.Errorf("INV-2: node %d lists job %d, which owns no thread there", ni, id)
			}
			if _, ok := isRunning[id]; !ok {
				return fmt.Errorf("INV-2: node %d hosts job %d, which is not in the running set", ni, id)
			}
			mem += n.JobMemoryMB(id)
			holds[id] = append(holds[id], ni)
		}
		if mem != memMB-n.MemFreeMB() || mem > memMB {
			return fmt.Errorf("INV-2: node %d reserves %d MB by job, counter says %d of %d MB",
				ni, mem, memMB-n.MemFreeMB(), memMB)
		}
		// INV-4: sharing never exceeds the configured degree.
		if len(ids) > maxDegree {
			return fmt.Errorf("INV-4: node %d hosts %d jobs, MaxDegree %d", ni, len(ids), maxDegree)
		}
		busyThreads += used
		if used > 0 {
			busyNodes++
		}
		if len(ids) >= 2 {
			sharedNodes++
		}
		if used == 0 && n.Available() {
			idle = append(idle, ni)
		}
		if n.Down() && used > 0 {
			return fmt.Errorf("INV-2: down node %d still holds %d threads", ni, used)
		}
	}
	if busyThreads != cl.BusyThreads() || busyNodes != cl.BusyNodes() || sharedNodes != cl.SharedNodes() {
		return fmt.Errorf("INV-2: rescan busy threads/nodes/shared %d/%d/%d, index %d/%d/%d",
			busyThreads, busyNodes, sharedNodes, cl.BusyThreads(), cl.BusyNodes(), cl.SharedNodes())
	}
	if got := cl.AppendIdleNodes(nil); !slices.Equal(got, idle) {
		return fmt.Errorf("INV-2: index idle nodes %v, rescan %v", got, idle)
	}
	if cl.CountIdle() != len(idle) {
		return fmt.Errorf("INV-2: CountIdle %d, rescan %d", cl.CountIdle(), len(idle))
	}

	for _, r := range running {
		j := r.Job
		// INV-5 (second half): a running job is in state Running, holds
		// exactly the nodes its record names, and is not queued.
		if j.State() != job.Running {
			return fmt.Errorf("INV-5: job %d is in the running set in state %v", j.ID, j.State())
		}
		got := holds[j.ID]
		want := slices.Clone(r.NodeIDs)
		slices.Sort(want)
		if !slices.Equal(got, want) || len(want) != j.Nodes {
			return fmt.Errorf("INV-2: job %d (%d nodes) records nodes %v, cluster holds %v",
				j.ID, j.Nodes, want, got)
		}
		// INV-3: no start before submit or before an afterok dependency
		// finished.
		if j.StartTime() < j.Submit {
			return fmt.Errorf("INV-3: job %d started at %v, submitted at %v", j.ID, j.StartTime(), j.Submit)
		}
		for _, dep := range j.After {
			d := c.byID[dep]
			if d == nil || d.State() != job.Finished || d.EndTime() > j.StartTime() {
				return fmt.Errorf("INV-3: job %d started at %v with dependency %d unmet", j.ID, j.StartTime(), dep)
			}
		}
	}

	// INV-5: the queue, the held list and the running set are disjoint, and
	// none holds a job twice.
	waiting := make(map[cluster.JobID]bool, len(pending))
	held := e.heldJobs()
	for k, j := range slices.Concat(pending, held) {
		where := "queued"
		if k >= len(pending) {
			where = "held"
		}
		if waiting[j.ID] {
			return fmt.Errorf("INV-5: %s job %d is queued or held twice", where, j.ID)
		}
		waiting[j.ID] = true
		if j.State() != job.Pending {
			return fmt.Errorf("INV-5: %s job %d is in state %v", where, j.ID, j.State())
		}
		if _, ok := isRunning[j.ID]; ok {
			return fmt.Errorf("INV-5: %s job %d is running", where, j.ID)
		}
		if cl.Holds(j.ID) {
			return fmt.Errorf("INV-5: %s job %d holds resources", where, j.ID)
		}
	}
	// INV-5 (hold rule): a job is held only while it must wait, so no held
	// job could be queued. One held on a dependency has a dependency that
	// has not ended and none that ended unfinished; one held for its backoff
	// has its release event pending (the event clears it as it fires).
	for _, h := range e.held {
		j := h.job
		switch h.reason {
		case "Dependency":
			waits := false
			for _, dep := range j.After {
				switch d := c.byID[dep]; {
				case d == nil || d.State() == job.Pending || d.State() == job.Running:
					waits = true
				case d.State() != job.Finished:
					return fmt.Errorf("INV-5: job %d is held on dependency %d, which ended %v", j.ID, dep, d.State())
				}
			}
			if !waits {
				return fmt.Errorf("INV-5: job %d is held though its dependencies %v all finished", j.ID, j.After)
			}
		case "BeginTime":
			if h.release == nil || j.Requeues() == 0 {
				return fmt.Errorf("INV-5: job %d is held for its backoff with no release pending or no requeue", j.ID)
			}
		default:
			return fmt.Errorf("INV-5: job %d is held for %q", j.ID, h.reason)
		}
	}
	// ... and with the ended jobs they account for every arrival: no job is
	// lost between them at any event.
	arrived := e.submitted - e.arrivalsPending
	if n := len(pending) + len(held) + len(running) + len(e.Finished()) + len(e.Killed()) + len(e.Rejected()); n != arrived {
		return fmt.Errorf("INV-5: %d jobs have arrived, %d are queued, held, running or ended", arrived, n)
	}
	return nil
}
