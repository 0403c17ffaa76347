//go:build !race

package slurm

// The flatness gate of the controller's two history-sized reads. The counts
// are exact for a given toolchain — nothing here is timed — so the gate
// cannot flake on a slow host; the race detector adds allocations of its
// own, hence the build tag.

import (
	"testing"

	"repro/internal/des"
)

// controllerWithHistory returns an in-memory controller that has run n
// one-node jobs to completion, ten at a time so the queue stays shallow.
func controllerWithHistory(t *testing.T, n int) *Controller {
	t.Helper()
	c, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 10 {
		for range min(10, n-i) {
			if _, err := c.Submit("minife", 1, 600, 120, ""); err != nil {
				t.Fatal(err)
			}
		}
		advance(t, c, des.Duration(1200))
	}
	drain(t, c)
	if got := len(c.History()); got != n {
		t.Fatalf("%d jobs in the history, want %d", got, n)
	}
	return c
}

// TestReadAllocationsFlat: a 100-row `queue history` page and a `stats` read
// with no job completed since the last read allocate as often at 4 000
// terminal jobs as at 1 000. Before the controller kept its terminal jobs in
// ID order and its samples between reads, both grew with the history: every
// page built, appended and sorted a row per terminal job, and every stats
// read rebuilt and sorted four samples.
func TestReadAllocationsFlat(t *testing.T) {
	// slack is how many more allocations a read may make at 4 000 jobs than
	// at 1 000.
	const slack = 0
	reads := []struct {
		name string
		req  Request
	}{
		{"100-row history page", Request{Op: "queue", History: true, Limit: 100}},
		{"stats", Request{Op: "stats"}},
	}
	sizes := []int{1000, 4000}
	allocs := make([][]float64, len(reads))
	for _, n := range sizes {
		srv := NewServer(controllerWithHistory(t, n))
		for i, r := range reads {
			srv.handleB(r.req, ticket{a: srv.adm}) // the first read indexes the history
			a := testing.AllocsPerRun(20, func() { srv.handleB(r.req, ticket{a: srv.adm}) })
			t.Logf("%s at %d terminal jobs: %.0f allocations", r.name, n, a)
			allocs[i] = append(allocs[i], a)
		}
	}
	for i, r := range reads {
		if grew := allocs[i][1] - allocs[i][0]; grew > slack {
			t.Errorf("%s: %.0f allocations at %d terminal jobs, %.0f at %d: it grows with the history",
				r.name, allocs[i][1], sizes[1], allocs[i][0], sizes[0])
		}
	}
}
