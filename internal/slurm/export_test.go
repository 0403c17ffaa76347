package slurm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
)

// Controller and client calls only the tests make. The wire reaches the
// same mutations through the verb table (verbs.go); these drive them
// in-process.

// advance moves c's clock forward by d and fails the test on an error.
func advance(t testing.TB, c *Controller, d des.Duration) des.Time {
	t.Helper()
	now, err := c.AdvanceChecked(d)
	if err != nil {
		t.Fatal(err)
	}
	return now
}

// drain runs c until all submitted work completes and fails the test on an
// error.
func drain(t testing.TB, c *Controller) {
	t.Helper()
	if _, err := c.DrainChecked(); err != nil {
		t.Fatal(err)
	}
}

// Recovery reports what opening the journal found (nil for in-memory
// controllers).
func (c *Controller) Recovery() *RecoveryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovery
}

// Submit is SubmitToken without an idempotency token.
func (c *Controller) Submit(appName string, nodes int, wall, runtime des.Duration, name string, after ...cluster.JobID) (cluster.JobID, error) {
	return c.SubmitToken("", appName, nodes, wall, runtime, name, after...)
}

// Cancel cancels a pending job.
func (c *Controller) Cancel(id cluster.JobID) error {
	return c.mutate(budget{}, &Entry{Op: "cancel", ID: int64(id)})
}

// Requeue evicts a running job and returns it to the queue — scontrol
// requeue. Lost progress is charged and the eviction counts against the
// job's retry budget.
func (c *Controller) Requeue(id cluster.JobID) error {
	return c.mutate(budget{}, &Entry{Op: "requeue", ID: int64(id)})
}

// DownNode forces a node down — scontrol update State=DOWN. Resident jobs
// are evicted and requeued.
func (c *Controller) DownNode(ni int) error {
	return c.mutate(budget{}, &Entry{Op: "down_node", Node: ni})
}

// UpNode returns a down node to service — scontrol update State=RESUME on a
// DOWN node.
func (c *Controller) UpNode(ni int) error {
	return c.mutate(budget{}, &Entry{Op: "up_node", Node: ni})
}

// DrainNode removes a node from scheduling (running jobs finish in place;
// no new work lands) — scontrol update State=DRAIN.
func (c *Controller) DrainNode(ni int) error {
	return c.mutate(budget{}, &Entry{Op: "drain_node", Node: ni})
}

// ResumeNode returns a drained node to service and kicks the scheduler so
// waiting work can use it immediately.
func (c *Controller) ResumeNode(ni int) error {
	return c.mutate(budget{}, &Entry{Op: "resume_node", Node: ni})
}

// Info fetches cluster name and policy.
func (c *Client) Info() (clusterName, policy string, err error) {
	resp, err := c.Do(Request{Op: "config"})
	return resp.Cluster, resp.Policy, err
}

// DrainChecked runs the simulation until all submitted work completes, with
// errors surfaced as AdvanceChecked surfaces them. Only the tests drain in
// process; the wire drains through the verb table.
func (c *Controller) DrainChecked() (des.Time, error) {
	err := c.mutate(budget{}, &Entry{Op: "drain"})
	return c.Now(), err
}

// resend has stage R push the whole log to the follower now, as a heartbeat
// with something to send would, and returns the outcome.
func (c *Controller) resend() error {
	c.mu.Lock()
	t := newCommit(nil, [3]int{})
	c.replicateLocked([]*commit{t}, c.seq)
	c.mu.Unlock()
	<-t.done
	return t.err
}
