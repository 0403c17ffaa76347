package sim

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/job"
)

// TestLifecycleProperty drives random afterok DAGs whose jobs arrive out of
// ID order, with jobs too wide or too memory-hungry for the machine among
// them, and between events cancels queued, dependency-held and backoff-held
// jobs and requeues running ones. Requeues wait out the default backoff, a
// zero one or a short one, and some attempts crash. INV-1…5, the hold rule
// with them, are checked after every event and every operator action; after
// RunAll every job has ended exactly once: finished, killed or rejected.
func TestLifecycleProperty(t *testing.T) {
	const seeds, n = 300, 24
	hungry := app.Synthetic("hungry", computeApp.Stress, 2*smallCluster().MemoryPerNodeMB, 1000)
	policies := []string{"easy", "fcfs", "sharebackfill", "firstfit"}
	seen := map[string]int{}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := des.NewRNG(seed)
		cfg := Config{Cluster: smallCluster(), Policy: mustPolicy(t, policies[seed%uint64(len(policies))])}
		switch seed % 3 {
		case 1:
			cfg.Faults = fault.Config{CrashProb: 0.2, MaxRetries: 1, Seed: seed} // zero backoff
		case 2:
			cfg.Faults = fault.Config{CrashProb: 0.2, MaxRetries: 2, Backoff: 20, Seed: seed}
		}
		e := New(cfg)
		e.TraceFn = func(line string) {
			for _, event := range []string{"(machine has", "MB/node", "(dependency failed)", "(crash,", "from backoff", "backoff 00:00:00.000,"} {
				if strings.Contains(line, event) {
					seen[event]++
				}
			}
		}
		jobs := make([]*job.Job, n)
		for i := range jobs {
			a, nodes := computeApp, 1+rng.Intn(4)
			switch rng.Intn(12) {
			case 0:
				nodes = smallCluster().Nodes + 1
			case 1:
				a = hungry
			}
			run := des.Duration(100 + rng.Intn(900))
			// Arrivals in random order, ties included: a dependent often
			// arrives before the job it waits for.
			j := jb(int64(i+1), a, nodes, des.Duration(25*rng.Intn(2*n)), run+des.Duration(rng.Intn(200)), run)
			for k := rng.Intn(3); k > 0 && i > 0; k-- {
				j.After = append(j.After, cluster.JobID(1+rng.Intn(i)))
			}
			jobs[i] = j
		}
		if err := e.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		chk := newInvariantChecker(e, jobs)
		check := func(after string) {
			t.Helper()
			if err := chk.check(); err != nil {
				t.Fatalf("seed %d: after %s at %v: %v", seed, after, e.Now(), err)
			}
		}
		for e.sim.Step() {
			check("an event")
			switch rng.Intn(6) {
			case 0:
				var waiting []*job.Job
				reasons := map[*job.Job]string{}
				for _, j := range e.Pending() {
					waiting, reasons[j] = append(waiting, j), "queued"
				}
				e.Held(func(j *job.Job, reason string) { waiting, reasons[j] = append(waiting, j), reason })
				if len(waiting) > 0 {
					j := waiting[rng.Intn(len(waiting))]
					if err := e.CancelPending(j.ID); err != nil {
						t.Fatalf("seed %d: cancel %s job %d: %v", seed, reasons[j], j.ID, err)
					}
					seen["cancel "+reasons[j]]++
					check("cancelling job " + j.String())
				}
			case 1:
				if running := e.Running(); len(running) > 0 {
					j := running[rng.Intn(len(running))].Job
					if err := e.RequeueRunning(j.ID); err != nil {
						t.Fatalf("seed %d: requeue job %d: %v", seed, j.ID, err)
					}
					seen["requeue"]++
					check("requeueing job " + j.String())
				}
			}
		}
		e.RunAll()
		ends := map[cluster.JobID]int{}
		for _, list := range [][]*job.Job{e.Finished(), e.Killed(), e.Rejected()} {
			for _, j := range list {
				ends[j.ID]++
			}
		}
		for _, j := range jobs {
			if ends[j.ID] != 1 {
				t.Fatalf("seed %d: job %d (state %v) is in %d of finished, killed and rejected after RunAll, want 1",
					seed, j.ID, j.State(), ends[j.ID])
			}
		}
	}
	// Each path the test exists for was taken.
	for _, event := range []string{"(machine has", "MB/node", "(dependency failed)", "(crash,", "from backoff", "backoff 00:00:00.000,",
		"cancel queued", "cancel Dependency", "cancel BeginTime", "requeue"} {
		if seen[event] == 0 {
			t.Errorf("no run took the %q path", event)
		}
	}
	t.Logf("paths taken: %v", seen)
}
