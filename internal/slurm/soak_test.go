package slurm

import (
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// soakServerConfig is deliberately undersized: 64 clients against 2
// in-flight slots and a tight per-connection rate limit guarantees heavy
// shedding, which is the point — correctness must hold under it.
func soakServerConfig() Config {
	cfg := testControllerConfig()
	cfg.Overload = OverloadConfig{
		MaxConns:    128,
		MaxInflight: 2,
		RateLimit:   50,
		RateBurst:   3,
		RetryAfter:  5 * time.Millisecond,
	}
	return cfg
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing with a full stack dump if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	var sb strings.Builder
	pprof.Lookup("goroutine").WriteTo(&sb, 1)
	t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), want, sb.String())
}

// TestSoakOverload is the acceptance soak: ≥64 concurrent clients against a
// server capped far below the offered load. Asserts zero duplicate job IDs
// for retried submits, every health probe answered within its deadline
// while mutations are shed, bounded memory, and zero leaked goroutines
// after Shutdown.
func TestSoakOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	before := runtime.NumGoroutine()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	ctl, err := NewController(soakServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 64, 8
	res, err := Storm{
		Addrs:      addr,
		Seed:       42,
		Clients:    clients,
		Submits:    perClient,
		Timeout:    2 * time.Second,
		ProbeEvery: 5 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	// Every submit acknowledged exactly once, replays deduplicated, nothing
	// lost, duplicated or leaked server-side, every health probe answered.
	if res.DuplicateIDs > 0 || res.Failures > 0 || len(res.Acked) != clients*perClient {
		t.Fatalf("%d tokens resolved to two job IDs, %d submits failed, %d acked (want %d); errors: %v",
			res.DuplicateIDs, res.Failures, len(res.Acked), clients*perClient, res.Errors)
	}
	if extras, err := res.Audit(addr, 42); err != nil || extras != 0 {
		t.Fatalf("audit: %d unacknowledged jobs on the server, err %v", extras, err)
	}
	if res.Probes == 0 || res.ProbeFailures > 0 {
		t.Fatalf("%d/%d health probes failed", res.ProbeFailures, res.Probes)
	}
	// The server must actually have been overloaded — a soak that never
	// sheds proves nothing.
	if res.Retries == 0 {
		t.Fatal("soak saw zero retries; server was never overloaded")
	}

	srv.Shutdown(5 * time.Second)
	// Shutdown waits for the accept loop and every connection goroutine;
	// nothing of the server may remain.
	waitGoroutines(t, before+1)

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if grew := int64(memAfter.HeapAlloc) - int64(memBefore.HeapAlloc); grew > 256<<20 {
		t.Fatalf("heap grew by %d MiB during soak; want bounded", grew>>20)
	}
}

// TestSoakHealthDuringShedding pins the health guarantee specifically: with
// zero in-flight slots available (MaxInflight saturated by a stalled
// request), health probes still answer.
func TestSoakHealthDuringShedding(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Overload = OverloadConfig{MaxInflight: 1, RetryAfter: 10 * time.Millisecond}
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	// Fill the single in-flight slot manually so every admitted request
	// would shed...
	srv.adm.slots <- struct{}{}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// ...which it does:
	var busy *BusyError
	if _, err := cl.Do(Request{Op: "queue"}); err == nil {
		t.Fatal("queue succeeded with zero in-flight slots")
	} else if !errors.As(err, &busy) || busy.RetryAfter <= 0 {
		t.Fatalf("queue error = %v, want BusyError with retry-after", err)
	}
	// But health bypasses admission entirely:
	h, err := cl.Health()
	if err != nil || h != HealthOK {
		t.Fatalf("health = %q, %v; want %q", h, err, HealthOK)
	}
}
