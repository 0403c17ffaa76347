package slurm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- token bucket ---

func TestTokenBucketSchedule(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := newTokenBucket(10, 2, t0) // 10 tokens/s, depth 2, starts full
	if ok, _ := tb.take(1, t0); !ok {
		t.Fatal("full bucket refused first token")
	}
	if ok, _ := tb.take(1, t0); !ok {
		t.Fatal("bucket refused second token within burst")
	}
	ok, wait := tb.take(1, t0)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait != 100*time.Millisecond {
		t.Fatalf("wait = %v, want 100ms (1 token at 10/s)", wait)
	}
	// After 50ms, half a token has refilled: still refused, shorter wait.
	ok, wait = tb.take(1, t0.Add(50*time.Millisecond))
	if ok || wait != 50*time.Millisecond {
		t.Fatalf("after 50ms: ok=%v wait=%v, want refused/50ms", ok, wait)
	}
	// After a full second the bucket is capped at burst, not rate*elapsed.
	if ok, _ := tb.take(2, t0.Add(2*time.Second)); !ok {
		t.Fatal("bucket did not refill to burst")
	}
	if ok, _ := tb.take(0.5, t0.Add(2*time.Second)); ok {
		t.Fatal("bucket exceeded burst cap")
	}
}

func TestTokenBucketDefaultBurst(t *testing.T) {
	tb := newTokenBucket(5, 0, time.Unix(0, 0))
	if tb.burst != 10 {
		t.Fatalf("default burst = %g, want 2*rate", tb.burst)
	}
	tb = newTokenBucket(0.2, 0, time.Unix(0, 0))
	if tb.burst != 1 {
		t.Fatalf("default burst = %g, want floor of 1", tb.burst)
	}
}

func TestVerbCost(t *testing.T) {
	for _, op := range []string{"requeue", "down_node", "up_node", "drain_node", "resume_node", "cancel"} {
		if c := verbCost(op, 0); c != DefaultControlCost {
			t.Errorf("verbCost(%s) = %g, want control default", op, c)
		}
		if c := verbCost(op, 0.25); c != 0.25 {
			t.Errorf("verbCost(%s, 0.25) = %g", op, c)
		}
	}
	for _, op := range []string{"submit", "queue", "nodes", "stats", "advance", "drain", "now", "config", "bogus"} {
		if c := verbCost(op, 0.25); c != 1 {
			t.Errorf("verbCost(%s) = %g, want 1", op, c)
		}
	}
}

// --- circuit breaker ---

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second)
	b.now = func() time.Time { return now }

	if !b.writable() || b.degraded() {
		t.Fatal("new breaker not open for business")
	}
	b.failure()
	b.failure()
	if !b.writable() {
		t.Fatal("breaker tripped before threshold")
	}
	b.failure() // third consecutive failure: trip
	if b.writable() || !b.degraded() {
		t.Fatal("breaker did not trip at threshold")
	}
	// Cooldown not yet elapsed: still closed.
	now = now.Add(4 * time.Second)
	if b.writable() {
		t.Fatal("breaker writable before cooldown elapsed")
	}
	// Cooldown elapsed: half-open (writable, still degraded until success).
	now = now.Add(2 * time.Second)
	if !b.writable() {
		t.Fatal("breaker not half-open after cooldown")
	}
	if !b.degraded() {
		t.Fatal("half-open breaker should still report degraded")
	}
	// A half-open failure re-trips immediately.
	b.failure()
	if b.writable() {
		t.Fatal("half-open failure did not re-trip")
	}
	// Success fully resets.
	now = now.Add(6 * time.Second)
	b.success()
	if !b.writable() || b.degraded() {
		t.Fatal("success did not reset breaker")
	}
}

// --- server admission ---

// overloadServer boots a server with the given overload config.
func overloadServer(t *testing.T, over OverloadConfig) (*Client, *Server, string) {
	t.Helper()
	cfg := testControllerConfig()
	cfg.Overload = over
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srv, addr
}

func TestServerConnectionCap(t *testing.T) {
	cl, _, addr := overloadServer(t, OverloadConfig{MaxConns: 1, RetryAfter: 50 * time.Millisecond})
	// First connection works.
	if _, err := cl.Do(Request{Op: "now"}); err != nil {
		t.Fatal(err)
	}
	// Second is rejected with a structured BUSY carrying the hint, then
	// closed.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	var busy *BusyError
	if _, err := cl2.Do(Request{Op: "now"}); !errors.As(err, &busy) {
		t.Fatalf("over-cap request error = %v, want BusyError", err)
	} else if busy.RetryAfter != 50*time.Millisecond {
		t.Fatalf("retry-after = %v, want 50ms", busy.RetryAfter)
	}
	if _, err := cl2.do1(Request{Op: "now"}); err == nil {
		t.Fatal("rejected connection not closed")
	}
	// The first connection is unaffected throughout.
	if _, err := cl.Do(Request{Op: "now"}); err != nil {
		t.Fatal(err)
	}
}

func TestServerRateLimitAndVerbClasses(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Overload = OverloadConfig{RateLimit: 1, RateBurst: 2, ControlCost: 0.01}
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	// Pin the server clock (before Listen — serve goroutines read it) so
	// refill is deterministic.
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	srv.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advanceClock := func(d time.Duration) {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(d)
	}
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

	// Burst of 2 bulk requests passes, third is shed with a computed wait.
	for i := 0; i < 2; i++ {
		if _, err := cl.Do(Request{Op: "now"}); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	var busy *BusyError
	if _, err := cl.Do(Request{Op: "now"}); !errors.As(err, &busy) {
		t.Fatalf("over-rate request error = %v, want BusyError", err)
	} else if busy.RetryAfter <= 0 || busy.RetryAfter > time.Second {
		t.Fatalf("computed retry-after = %v", busy.RetryAfter)
	}
	// Control verbs cost 0.01: even with the bucket drained for bulk
	// traffic, the 0.15 tokens refilled over 150ms cover ten of them.
	advanceClock(150 * time.Millisecond)
	for i := 0; i < 10; i++ {
		// requeue of an unknown job is an application error, not BUSY —
		// it made it past admission.
		_, err := cl.Do(Request{Op: "requeue", ID: 999})
		if errors.As(err, &busy) {
			t.Fatalf("control verb %d rate-limited alongside bulk traffic", i)
		}
	}
	// Enough further control verbs exhaust even the control budget.
	foundBusy := false
	for i := 0; i < 10; i++ {
		if _, err := cl.Do(Request{Op: "requeue", ID: 999}); errors.As(err, &busy) {
			foundBusy = true
			break
		}
	}
	if !foundBusy {
		t.Fatal("control verbs never rate-limited at all")
	}
}

func TestServerInflightShedding(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{MaxInflight: 1})
	srv.adm.slots <- struct{}{} // saturate the only slot
	var busy *BusyError
	if _, err := cl.Do(Request{Op: "queue"}); !errors.As(err, &busy) {
		t.Fatalf("error = %v, want BusyError", err)
	}
	<-srv.adm.slots
	if _, err := cl.Do(Request{Op: "queue"}); err != nil {
		t.Fatalf("request after slot freed: %v", err)
	}
}

func TestHealthVerb(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{})
	h, err := cl.Health()
	if err != nil || h != HealthOK {
		t.Fatalf("health = %q, %v", h, err)
	}
	// While draining, health still answers — reporting it. Shutdown keeps
	// only connections that are mid-request when it begins, so two requests
	// are parked on the server clock: cl's, released first, and another that
	// holds the shutdown open while cl probes.
	other, err := Dial(cl.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	gates, parked := make(chan chan struct{}, 1), make(chan struct{})
	srv.now = func() time.Time {
		select {
		case g := <-gates:
			parked <- struct{}{}
			<-g
		default:
		}
		return time.Now()
	}
	park := func(c *Client) (release func()) {
		g, done := make(chan struct{}), make(chan struct{})
		gates <- g
		go func() { c.Do(Request{Op: "now"}); close(done) }()
		<-parked
		return func() { close(g); <-done }
	}
	releaseOther, releaseCl := park(other), park(cl)
	shut := make(chan struct{})
	go func() { srv.Shutdown(5 * time.Second); close(shut) }()
	for !srv.lp.Draining() {
		time.Sleep(time.Millisecond)
	}
	releaseCl()
	h, err = cl.Health()
	if err != nil || h != HealthDraining {
		t.Fatalf("draining health = %q, %v", h, err)
	}
	releaseOther()
	<-shut
}

// --- degraded mode ---

// TestDegradedMode drives the journal breaker end to end over the wire: a
// failing journal trips the controller into read-only DEGRADED mode where
// queries and health still answer, mutations are rejected, and a recovered
// journal heals it after the cooldown.
func TestDegradedMode(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	cfg.Overload.BreakerThreshold = 2
	cfg.Overload.BreakerCooldown = 50 * time.Millisecond
	ctl, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
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

	if _, err := cl.Submit("minife", 1, 1800, 900, "pre"); err != nil {
		t.Fatal(err)
	}

	// Break the journal: every append now fails as a full disk would.
	ctl.mu.Lock()
	ctl.jr.testAppendErr = func(Entry) error { return fmt.Errorf("disk full") }
	ctl.mu.Unlock()

	// Two failing mutations trip the breaker (threshold 2). They error
	// but report the append failure, not degradation, on the way down.
	for i := 0; i < 2; i++ {
		if _, err := cl.Submit("minife", 1, 1800, 900, "trip"); err == nil {
			t.Fatal("submit with dead journal succeeded")
		}
	}
	// Now DEGRADED: mutations rejected up front...
	if _, err := cl.Submit("minife", 1, 1800, 900, "shed"); err == nil ||
		!strings.Contains(err.Error(), "degraded") {
		t.Fatalf("degraded submit error = %v", err)
	}
	if err := cl.DrainNode(0); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("degraded drain_node error = %v", err)
	}
	// ...queries and health still served.
	if _, err := cl.Queue(false); err != nil {
		t.Fatalf("query during degraded: %v", err)
	}
	h, err := cl.Health()
	if err != nil || h != HealthDegraded {
		t.Fatalf("health = %q, %v; want degraded", h, err)
	}

	// Heal the journal; after the cooldown the breaker goes half-open and
	// the next mutation probes, succeeds, and fully closes it.
	ctl.mu.Lock()
	ctl.jr.testAppendErr = nil
	ctl.mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	if _, err := cl.Submit("minife", 1, 1800, 900, "healed"); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	h, err = cl.Health()
	if err != nil || h != HealthOK {
		t.Fatalf("health after heal = %q, %v", h, err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- history pagination ---

func TestQueueHistoryPagination(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Overload.HistoryLimit = 5
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
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

	const jobs = 12
	for i := 0; i < jobs; i++ {
		if _, err := cl.Submit("minife", 1, 1800, 900, fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}

	// Default cap applies to history queries with no explicit limit.
	got, err := cl.Queue(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("capped history rows = %d, want 5", len(got))
	}
	// Explicit pagination walks the full set; Total reports it.
	var all []JobInfo
	for off := 0; ; off += 4 {
		page, total, err := cl.QueuePage(true, 4, off)
		if err != nil {
			t.Fatal(err)
		}
		if total != jobs {
			t.Fatalf("total = %d, want %d", total, jobs)
		}
		all = append(all, page...)
		if off+4 >= total {
			break
		}
	}
	if len(all) != jobs {
		t.Fatalf("paginated rows = %d, want %d", len(all), jobs)
	}
	seen := map[int64]bool{}
	for _, j := range all {
		if seen[j.ID] {
			t.Fatalf("job %d appeared in two pages", j.ID)
		}
		seen[j.ID] = true
	}
	// Offset past the end yields an empty page, not an error.
	page, total, err := cl.QueuePage(true, 4, 100)
	if err != nil || len(page) != 0 || total != jobs {
		t.Fatalf("past-end page = %d rows, total %d, err %v", len(page), total, err)
	}
	// Plain queue (no history) stays uncapped and unchanged.
	if _, err := cl.Submit("minife", 1, 1800, 900, "tail"); err != nil {
		t.Fatal(err)
	}
	got, err = cl.Queue(false)
	if err != nil || len(got) != 1 {
		t.Fatalf("plain queue = %d rows, err %v", len(got), err)
	}
	_ = addr
}

// TestSubmitTokenInMemory: dedupe works for in-memory controllers too.
func TestSubmitTokenInMemory(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ctl.SubmitToken("tok-a", "minife", 1, 1800, 900, "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ctl.SubmitToken("tok-a", "minife", 1, 1800, 900, "a")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("token resolved to %d then %d", id1, id2)
	}
	if n := len(ctl.Queue()); n != 1 {
		t.Fatalf("queue has %d jobs, want 1", n)
	}
	// Distinct tokens are distinct jobs; empty tokens never dedupe.
	id3, err := ctl.SubmitToken("tok-b", "minife", 1, 1800, 900, "b")
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("distinct tokens shared a job")
	}
	id4, _ := ctl.Submit("minife", 1, 1800, 900, "c")
	id5, _ := ctl.Submit("minife", 1, 1800, 900, "c")
	if id4 == id5 {
		t.Fatal("untokened submits deduped")
	}
}
