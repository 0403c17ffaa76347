package slurm

import (
	"strings"
	"testing"
	"time"
)

// TestOversizeQueueReplyKeepsClientUsable: a queue reply that would encode
// past MaxLine is never written — the client's own scanner would refuse it
// and then parse its tail as the next reply. The server sends a structured
// error naming the paging fields instead, and the same client carries on.
func TestOversizeQueueReplyKeepsClientUsable(t *testing.T) {
	cl, srv := startServer(t)
	// ~1.5 MiB of queue: 1500 pending jobs with 1 KiB names (4 nodes, the
	// first job holds them all).
	name := strings.Repeat("n", 1024)
	for i := 0; i < 1500; i++ {
		if _, err := srv.ctl.Submit("minife", 4, 3600, 1800, name); err != nil {
			t.Fatal(err)
		}
	}
	_, err := cl.Queue(false)
	if err == nil {
		t.Fatal("a reply past MaxLine was delivered")
	}
	for _, want := range []string{"slurm: server: reply exceeds", "limit", "offset"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("queue error = %v, want a server error mentioning %q", err, want)
		}
	}
	// The connection is still in step: the next request gets its own reply.
	if name, policy, err := cl.Info(); err != nil || name == "" || policy == "" {
		t.Fatalf("config after the oversize reply = %q, %q, %v", name, policy, err)
	}
	// And the advice works.
	page, total, err := cl.QueuePage(false, 100, 0)
	if err != nil || len(page) != 100 || total != 1500 {
		t.Fatalf("paged queue = %d rows of %d, %v", len(page), total, err)
	}
}

// TestFailedRoundTripRedials: a round trip that times out after the request
// was sent leaves its reply to arrive later on that socket; reusing the socket
// would hand that stale reply to the next request. The client dials afresh.
func TestFailedRoundTripRedials(t *testing.T) {
	cl, srv := startServer(t)
	srv.ctl.mu.Lock() // a queue read needs mu (the reply's clock stamp no longer does)
	cl.Timeout = 50 * time.Millisecond
	_, err := cl.Do(Request{Op: "queue"})
	srv.ctl.mu.Unlock()
	if !isTransportError(err) {
		t.Fatalf("stalled round trip = %v, want a transport error", err)
	}
	cl.Timeout = 5 * time.Second
	now, err := cl.Advance(60)
	if err != nil || now != 60 {
		t.Fatalf("advance after a failed round trip = %v, %v: want clock 60, not the stale queue reply", now, err)
	}
}

// TestClientCloseThenDo: Close drops the transport, and the client redials on
// its next use.
func TestClientCloseThenDo(t *testing.T) {
	cl, _ := startServer(t)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if cl.conn != nil {
		t.Fatal("Close left the transport set")
	}
	if _, _, err := cl.Info(); err != nil {
		t.Fatalf("Do after Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
