package fabric

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServeHealthStopWithIdleClient: stop() severs accepted connections; it
// used to close only the listener and then wait for a silent client's reader
// to reach its one-minute deadline, holding up simd's exit behind it.
func TestServeHealthStopWithIdleClient(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, stop, err := ServeHealth("127.0.0.1:0", func() HealthReport { return HealthReport{OK: true, Health: HealthOK} })
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// One answered probe proves the connection is accepted and being served
	// before it goes quiet.
	if _, err := idle.Write([]byte(`{"op":"health"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(idle).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(3 * time.Second):
		t.Fatal("stop() still blocked behind an idle client after 3s")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before ServeHealth, %d after stop()", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverlongLineGetsErrorReply: the dispatcher and the health port answer a
// line past the bound the way the controller does — an error reply, then a
// hang-up — where they used to drop the connection with nothing said.
func TestOverlongLineGetsErrorReply(t *testing.T) {
	d, err := NewDispatcher(Config{Cells: 1, Consume: func(int, []byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	dispAddr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	healthAddr, stop, err := ServeHealth("127.0.0.1:0", func() HealthReport { return HealthReport{} })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	for _, tc := range []struct{ name, addr string }{
		{"dispatcher", dispAddr},
		{"health port", healthAddr},
	} {
		conn, err := net.Dial("tcp", tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Exactly the bound with no newline: the server has read every byte
		// when it gives up, so its close cannot race the reply with a reset.
		if _, err := conn.Write([]byte(strings.Repeat("x", maxLine))); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(conn)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: no reply to an over-long line: %v", tc.name, err)
		}
		resp, err := decodeResponse([]byte(line))
		if err != nil || !strings.Contains(resp.Error, "request exceeds") {
			t.Fatalf("%s: reply = %q (%v), want a request-exceeds error", tc.name, line, err)
		}
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatalf("%s: connection left open after an over-long line", tc.name)
		}
	}
}

// TestWorkerHealthManyLoops: a daemon with many -parallel loops reports them
// all — its reply is bounded like any other line, not by a smaller cap on the
// health port — and an error reply is an error to the fetcher, never a
// zero-valued report that -check-health would read as a misbehaving daemon.
func TestWorkerHealthManyLoops(t *testing.T) {
	snaps := make([]WorkerSnapshot, 64)
	for i := range snaps {
		snaps[i] = WorkerSnapshot{ID: fmt.Sprintf("host-4242-%d", i), Health: HealthOK, CellsDone: int64(i), LeaseCell: -1}
	}
	addr, stop, err := ServeHealth("127.0.0.1:0", func() HealthReport { return AggregateHealth(snaps) })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	h, err := FetchWorkerHealth(addr, 5*time.Second)
	if err != nil || h.Health != HealthOK || len(h.Fabric.Workers) != len(snaps) {
		t.Fatalf("health = %q with %d workers, %v; want ok with %d", h.Health, len(h.Fabric.Workers), err, len(snaps))
	}

	// Far past any line bound: the server sends an error reply in its place.
	snaps = make([]WorkerSnapshot, maxLine/64)
	if h, err := FetchWorkerHealth(addr, 5*time.Second); err == nil || !strings.Contains(err.Error(), "reply exceeds") {
		t.Fatalf("oversized report fetched as %+v, %v; want a reply-exceeds error", h.Health, err)
	}
}

// TestFetchSpecHonoursTimeout: against a dispatcher that accepts and never
// answers, FetchSpec gives up when its timeout does — this is simd's
// -spec-timeout. Each attempt used to get a fixed 5 s and the backoff sleep
// whatever the policy drew, so a 200 ms timeout took five seconds.
func TestFetchSpecHonoursTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open and silent until the test ends
		}
	}()
	const timeout = 200 * time.Millisecond
	start := time.Now()
	if _, _, err := FetchSpec(ln.Addr().String(), timeout); err == nil {
		t.Fatal("FetchSpec succeeded against a silent listener")
	}
	if took := time.Since(start); took > 2*timeout {
		t.Fatalf("FetchSpec(%s) returned after %s", timeout, took)
	}
}
