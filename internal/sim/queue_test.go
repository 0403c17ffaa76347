package sim

import (
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/job"
)

// TestQueueInversionCount drives fault runs — crashes and node failures
// requeueing jobs behind later arrivals, with and without a backoff hold,
// dependency holds, same-instant arrivals in shuffled ID order, operator
// cancels, and a priority order switched on and off — one event at a time.
// After every event and every cancel the engine's count of adjacent pairs
// out of FCFS order must equal a recount, and Pending() must be the stable
// sort of the queue under the order in force, job for job.
func TestQueueInversionCount(t *testing.T) {
	largestFirst := func(a, b *job.Job) bool { return a.Nodes > b.Nodes }
	inversions, skipped, sorted := 0, 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, backoff := range []des.Duration{30, 0} {
			rng := des.NewRNG(seed)
			faults := fault.Config{MTBF: 3000, MTTR: 300, Shape: 1, CrashProb: 0.2,
				MaxRetries: 2, Backoff: backoff, Seed: seed}
			e := New(Config{Cluster: smallCluster(), Policy: mustPolicy(t, "easy"), Faults: faults})
			jobs := make([]*job.Job, 60)
			ids := rng.Perm(len(jobs))
			for i := range jobs {
				wall := des.Duration(400 + 100*rng.Intn(8))
				jobs[i] = &job.Job{
					ID:          cluster.JobID(ids[i] + 1),
					Name:        "q",
					App:         []app.Model{computeApp, membwApp}[rng.Intn(2)],
					Nodes:       1 + rng.Intn(3),
					Submit:      des.Time(40 * (i / 3)), // three arrivals an instant
					ReqWalltime: wall,
					TrueRuntime: wall * 3 / 4,
				}
				if i > 0 && rng.Intn(6) == 0 {
					jobs[i].After = []cluster.JobID{jobs[rng.Intn(i)].ID}
				}
			}
			if err := e.SubmitAll(jobs); err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				recount := 0
				for k := 1; k < len(e.queue); k++ {
					if fcfs(e.queue[k], e.queue[k-1]) {
						recount++
					}
				}
				if e.unsorted != recount {
					t.Fatalf("seed %d backoff %v, %s at %v: the engine counts %d inversions, a recount %d",
						seed, backoff, step, e.Now(), e.unsorted, recount)
				}
				less := e.lessFn
				if less == nil {
					less = fcfs
				}
				want := slices.Clone(e.queue)
				slices.SortStableFunc(want, func(a, b *job.Job) int {
					switch {
					case less(a, b):
						return -1
					case less(b, a):
						return 1
					}
					return 0
				})
				if got := e.Pending(); !slices.Equal(got, want) {
					t.Fatalf("seed %d backoff %v, %s at %v: Pending() is out of order", seed, backoff, step, e.Now())
				}
				switch {
				case recount > 0:
					inversions++
				case e.lessFn == nil && len(e.queue) > 1:
					skipped++
				}
				if e.lessFn != nil && len(e.queue) > 1 {
					sorted++
				}
			}
			for step := 0; e.sim.Step(); step++ {
				check("event")
				switch rng.Intn(25) {
				case 0:
					if len(e.queue) > 0 {
						if err := e.CancelPending(e.queue[rng.Intn(len(e.queue))].ID); err != nil {
							t.Fatal(err)
						}
						check("cancel")
					}
				case 1:
					e.SetQueueOrder(largestFirst)
				case 2:
					e.SetQueueOrder(nil)
				}
			}
			if r := e.Result(); r.Requeues == 0 {
				t.Fatalf("seed %d backoff %v: no job was requeued", seed, backoff)
			}
		}
	}
	for what, n := range map[string]int{
		"queue out of FCFS order": inversions, "sorted FCFS queue": skipped, "queue under a priority order": sorted,
	} {
		if n < 50 {
			t.Errorf("only %d checks saw a %s", n, what)
		}
	}
}
