package sched

import (
	"testing"

	"repro/internal/des"
	"repro/internal/job"
)

// The cut-off's gates count what a pass built, never how long it took: a
// profile that was never opened has no breakpoints, and a planned job leaves
// at most two behind.

// cutoffState is an 8-node machine with idle nodes idle and the others under
// exclusive one-node jobs that end a hundred seconds apart, and 1000 queued
// three-node jobs of distinct walltimes — except, when smallAt ≥ 0, a two-node
// job at that position, too long to backfill in front of its predecessors.
func cutoffState(t *testing.T, idle, smallAt int) *Context {
	t.Helper()
	c := testCluster()
	var running []*RunningJob
	for ni := 0; ni < c.Size()-idle; ni++ {
		running = append(running, run(t, c, mkJob(computeApp, 1, 5000), []int{ni}, des.Time(1000+100*ni)))
	}
	queue := make([]*job.Job, 1000)
	for i := range queue {
		queue[i] = mkJob(computeApp, 3, des.Duration(2000+i))
	}
	if smallAt >= 0 {
		queue[smallAt] = mkJob(computeApp, 2, 9000)
	}
	return mkCtx(c, queue, running)
}

func TestCutoffFullMachinePlansNothing(t *testing.T) {
	for _, name := range []string{"easy", "conservative", "shareconservative", "sharebackfill"} {
		t.Run(name, func(t *testing.T) {
			pol, err := New(name, DefaultShareConfig())
			if err != nil {
				t.Fatal(err)
			}
			ctx := cutoffState(t, 0, 500)
			before := ctx.scratch().profile.Len()
			if got := pol.Schedule(ctx); len(got) != 0 {
				t.Fatalf("planned %d starts on a full machine", len(got))
			}
			if after := ctx.sc.profile.Len(); after != before {
				t.Fatalf("the pass built a profile of %d breakpoints; nothing could start", after)
			}
		})
	}
}

// With k nodes idle and the last job of at most k nodes at queue position p,
// a pass plans no position behind p. EASY runs the same skeleton as
// Conservative but keeps one reservation, so only the conservative planners
// leave a count behind.
func TestCutoffStopsAtLastStartableJob(t *testing.T) {
	const idle, p = 2, 40
	opened := 1 + (8 - idle) // the profile start and one release per running job
	bound := opened + 2*(p+1)

	t.Run("conservative", func(t *testing.T) {
		ctx := cutoffState(t, idle, p)
		if got := (Conservative{}).Schedule(ctx); len(got) != 0 {
			t.Fatalf("planned %d starts; every job is blocked", len(got))
		}
		if got := ctx.sc.profile.Len(); got <= opened || got > bound {
			t.Fatalf("profile has %d breakpoints, want more than the %d it opens with and at most %d", got, opened, bound)
		}
		_, ref := refBackfillExclusive(cutoffState(t, idle, p), 1000)
		if len(ref.times) <= bound {
			t.Fatalf("the uncut walk leaves %d breakpoints, within the bound %d: the gate shows nothing", len(ref.times), bound)
		}
	})

	t.Run("shareconservative", func(t *testing.T) {
		ctx := cutoffState(t, idle, p)
		if got := (ShareConservative{Config: DefaultShareConfig()}).Schedule(ctx); len(got) != 0 {
			t.Fatalf("planned %d starts; every job is blocked", len(got))
		}
		if got := len(ctx.sc.shadows); got == 0 || got > p+1 {
			t.Fatalf("planned %d reservations, want 1…%d", got, p+1)
		}
		if got := ctx.sc.profile.Len(); got > bound {
			t.Fatalf("profile has %d breakpoints, want at most %d", got, bound)
		}
		ref := cutoffState(t, idle, p)
		refScheduleShare(ref.withShare(DefaultShareConfig()), 1000)
		if got := len(ref.sc.shadows); got <= p+1 {
			t.Fatalf("the uncut walk plans %d reservations, within the bound %d: the gate shows nothing", got, p+1)
		}
	})

	// No job of at most k nodes anywhere: the walk ends before its first job.
	t.Run("none", func(t *testing.T) {
		ctx := cutoffState(t, idle, -1)
		if got := (Conservative{}).Schedule(ctx); len(got) != 0 {
			t.Fatalf("planned %d starts", len(got))
		}
		if got := ctx.sc.profile.Len(); got != opened {
			t.Fatalf("profile has %d breakpoints, want the %d it opens with", got, opened)
		}
	})
}

// windowState is an 8-node machine with 4 nodes idle and the others under
// exclusive one-node jobs ending at 1000…1300, and 1000 queued jobs: an
// 8-node head holding the whole machine from 1300 for a day, then two- and
// three-node jobs too long to end before it — every request fits the idle
// nodes, but no window before the head's reservation holds any of them —
// except a two-node job at position p short enough to start now.
func windowState(t *testing.T, p int) *Context {
	t.Helper()
	c := testCluster()
	var running []*RunningJob
	for ni := 0; ni < 4; ni++ {
		running = append(running, run(t, c, mkJob(computeApp, 1, 5000), []int{ni}, des.Time(1000+100*ni)))
	}
	queue := make([]*job.Job, 1000)
	queue[0] = mkJob(computeApp, 8, 86400)
	for i := 1; i < len(queue); i++ {
		queue[i] = mkJob(computeApp, 2+i%2, des.Duration(2000+i))
	}
	queue[p] = mkJob(computeApp, 2, 1000)
	return mkCtx(c, queue, running)
}

// Idle nodes cover every request, so no count of free nodes can end the walk;
// reservations can. The head's reservation closes every window a job behind
// p would need, so after starting the job at p a pass plans nothing more:
// positions 0…p, one start, where the uncut walks plan all 1000.
func TestCutoffStopsWhereReservationsCloseEveryWindow(t *testing.T) {
	const p = 40
	opened := 1 + 4 // the profile start and one release per running job
	bound := opened + 2*(p+1)
	startsOnlyP := func(t *testing.T, ctx *Context, got []Decision) {
		t.Helper()
		if len(got) != 1 || got[0].Job != ctx.Queue[p] {
			t.Fatalf("planned %s, want the start of position %d alone", decisionSignature(got), p)
		}
	}

	t.Run("conservative", func(t *testing.T) {
		ctx := windowState(t, p)
		startsOnlyP(t, ctx, (Conservative{}).Schedule(ctx))
		if got := ctx.sc.profile.Len(); got > bound {
			t.Fatalf("profile has %d breakpoints, want at most %d", got, bound)
		}
		ref := windowState(t, p)
		got, profile := refBackfillExclusive(ref, 1000)
		startsOnlyP(t, ref, got)
		if len(profile.times) <= bound {
			t.Fatalf("the uncut walk leaves %d breakpoints, within the bound %d: the gate shows nothing", len(profile.times), bound)
		}
	})

	t.Run("shareconservative", func(t *testing.T) {
		ctx := windowState(t, p)
		startsOnlyP(t, ctx, (ShareConservative{Config: DefaultShareConfig()}).Schedule(ctx))
		if got := len(ctx.sc.shadows); got != p {
			t.Fatalf("planned %d reservations, want the %d ahead of position %d", got, p, p)
		}
		ref := windowState(t, p)
		startsOnlyP(t, ref, refScheduleShare(ref.withShare(DefaultShareConfig()), 1000))
		if got := len(ref.sc.shadows); got <= p+1 {
			t.Fatalf("the uncut walk plans %d reservations, within the bound %d: the gate shows nothing", got, p+1)
		}
	})
}
