package slurm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/retry"
)

// --- shedder units -----------------------------------------------------

// TestShedderHysteresis: the level climbs one class per sustained window of
// pressure and descends one class per sustained window of quiet — never
// faster, and never on a single slow sample.
func TestShedderHysteresis(t *testing.T) {
	window := 100 * time.Millisecond
	s := newLoadSignal(10*time.Millisecond, window)
	t0 := time.Unix(1000, 0)

	// One slow observation: pressure starts, but no step yet.
	s.observe(classQuery, 50*time.Millisecond, t0)
	if got := s.shedLevel(t0); got != shedNone {
		t.Fatalf("level after one slow sample = %d, want %d", got, shedNone)
	}
	// Sustained pressure for a full window: one step, not two.
	s.observe(classQuery, 50*time.Millisecond, t0.Add(window))
	if got := s.shedLevel(t0.Add(window)); got != shedQueries {
		t.Fatalf("level after sustained window = %d, want %d", got, shedQueries)
	}
	// Another full window: second step, capped at shedSubmits.
	s.observe(classQuery, 50*time.Millisecond, t0.Add(2*window))
	s.observe(classQuery, 50*time.Millisecond, t0.Add(3*window))
	if got := s.shedLevel(t0.Add(3 * time.Duration(window))); got != shedSubmits {
		t.Fatalf("level after two windows = %d, want %d", got, shedSubmits)
	}
	// Fast completions now: quiet must be sustained a full window per step.
	tq := t0.Add(4 * window)
	s.observe(classQuery, time.Microsecond, tq)
	for i := 0; i < 20; i++ {
		s.observe(classQuery, time.Microsecond, tq.Add(time.Duration(i)*window/10))
	}
	if got := s.shedLevel(tq.Add(3 * window)); got >= shedSubmits {
		t.Fatalf("level did not descend after sustained quiet: %d", got)
	}
}

// TestShedderIdleDecay: once shedding stops completions entirely, the
// latency EWMA must decay across quiet windows so the shedder can unwedge
// itself — current() alone, with no new observations, walks the level down.
func TestShedderIdleDecay(t *testing.T) {
	window := 50 * time.Millisecond
	s := newLoadSignal(time.Millisecond, window)
	t0 := time.Unix(2000, 0)
	// Drive to max shed level.
	for i := 0; i <= 4; i++ {
		s.observe(classQuery, time.Second, t0.Add(time.Duration(i)*window))
	}
	if got := s.shedLevel(t0.Add(4 * window)); got != shedSubmits {
		t.Fatalf("setup failed: level %d, want %d", got, shedSubmits)
	}
	// No observations at all (everything shed); far in the future the decay
	// must have brought the signal — and the level — all the way down.
	if got := s.shedLevel(t0.Add(100 * window)); got != shedNone {
		t.Fatalf("idle shedder never recovered: level %d", got)
	}
}

// TestShedderSaturationIsPressure: volume sheds count as pressure even when
// every request that does run is fast.
func TestShedderSaturationIsPressure(t *testing.T) {
	window := 100 * time.Millisecond
	s := newLoadSignal(time.Hour, window) // latency can never exceed target
	t0 := time.Unix(3000, 0)
	s.saturate(t0)
	s.saturate(t0.Add(window / 2))
	s.saturate(t0.Add(window))
	if got := s.shedLevel(t0.Add(window)); got != shedQueries {
		t.Fatalf("sustained saturation did not raise level: %d", got)
	}
}

// --- brownout ladder property -----------------------------------------

// TestBrownoutLadderNeverFlaps is the flap-freedom property test: across a
// deterministic pseudo-random schedule of pressure bursts and quiet gaps,
// the ladder (1) moves at most one level per observation, (2) climbs only
// after pressure sustained ≥ step, and (3) descends only after quiet
// sustained ≥ cooldown. Timestamps are simulated, so the property holds
// exactly, not probabilistically.
func TestBrownoutLadderNeverFlaps(t *testing.T) {
	const step, cooldown = 100 * time.Millisecond, 400 * time.Millisecond
	rng := des.NewRNG(11).Stream("serve/ladder-prop")

	b := &hysteresis{up: step, down: cooldown, max: BrownoutReadOnly}
	now := time.Unix(5000, 0)
	prev := BrownoutNormal
	var pressSince, quietSince time.Time // our own shadow of the hysteresis

	for i := 0; i < 5000; i++ {
		pressure := rng.Float64() < 0.5
		now = now.Add(time.Duration(rng.Uniform(float64(time.Millisecond), float64(60*time.Millisecond))))
		got, _ := b.step(pressure, now)

		if diff := got - prev; diff > 1 || diff < -1 {
			t.Fatalf("step %d: level jumped %d -> %d", i, prev, got)
		}
		if got > prev {
			if pressSince.IsZero() || now.Sub(pressSince) < step {
				t.Fatalf("step %d: climbed after %v of pressure (< step %v)", i, now.Sub(pressSince), step)
			}
		}
		if got < prev {
			if quietSince.IsZero() || now.Sub(quietSince) < cooldown {
				t.Fatalf("step %d: descended after %v of quiet (< cooldown %v)", i, now.Sub(quietSince), cooldown)
			}
		}

		// Maintain the shadow clocks the way the contract describes them.
		if pressure {
			quietSince = time.Time{}
			if pressSince.IsZero() || got > prev {
				pressSince = now
			}
		} else {
			pressSince = time.Time{}
			if quietSince.IsZero() || got < prev {
				quietSince = now
			}
		}
		prev = got
	}
}

// TestBrownoutLadderMonotoneUnderSustainedPressure: constant pressure climbs
// normal → paged → stale → readonly with no intermediate descent, then
// constant quiet unwinds fully, one cooldown per level.
func TestBrownoutLadderMonotoneUnderSustainedPressure(t *testing.T) {
	const step, cooldown = 10 * time.Millisecond, 40 * time.Millisecond
	b := &hysteresis{up: step, down: cooldown, max: BrownoutReadOnly}
	now := time.Unix(6000, 0)
	seen := []int{BrownoutNormal}
	for i := 0; i < 100; i++ {
		now = now.Add(2 * time.Millisecond)
		lvl, _ := b.step(true, now)
		if lvl < seen[len(seen)-1] {
			t.Fatalf("level descended under sustained pressure: %d -> %d", seen[len(seen)-1], lvl)
		}
		if lvl != seen[len(seen)-1] {
			seen = append(seen, lvl)
		}
	}
	want := []int{BrownoutNormal, BrownoutPaged, BrownoutStale, BrownoutReadOnly}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("climb order %v, want %v", seen, want)
	}
	// Quiet: no descent before one full cooldown.
	lvl, _ := b.step(false, now.Add(time.Millisecond))
	lvl, _ = b.step(false, now.Add(cooldown-time.Millisecond))
	if lvl != BrownoutReadOnly {
		t.Fatalf("descended before cooldown: %d", lvl)
	}
	for i := 1; i <= 3; i++ {
		lvl, _ = b.step(false, now.Add(time.Duration(i)*cooldown+2*time.Millisecond))
	}
	if lvl != BrownoutNormal {
		t.Fatalf("ladder did not unwind to normal: %d", lvl)
	}
}

// --- deadline admission ------------------------------------------------

// TestRequestBudget: the wire field's resolution — absent is inert, hostile
// negatives are pre-expired, and absurd values clamp instead of overflowing.
func TestRequestBudget(t *testing.T) {
	now := time.Unix(7000, 0)
	if b := requestBudget(0, now); b.active() {
		t.Fatal("zero deadline_ms must be inert")
	}
	if b := requestBudget(-50, now); !b.expired(now) {
		t.Fatal("negative deadline_ms must resolve to expired")
	}
	huge := requestBudget(1<<62, now)
	if !huge.active() || huge.remaining(now) > 25*time.Hour || huge.remaining(now) <= 0 {
		t.Fatalf("huge deadline_ms must clamp sanely, got remaining %v", huge.remaining(now))
	}
	b := requestBudget(100, now)
	if b.expired(now.Add(99 * time.Millisecond)) {
		t.Fatal("budget expired early")
	}
	if !b.expired(now.Add(100 * time.Millisecond)) {
		t.Fatal("budget did not expire on time")
	}
}

// TestDeadlineAdmissionRefusesUnservable: a request whose remaining budget
// cannot cover the class's estimated service time is refused before any
// work, with a structured deadline_exceeded response the client surfaces as
// DeadlineError.
func TestDeadlineAdmissionRefusesUnservable(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{})
	// Teach the estimator that queries take ~80ms.
	for i := 0; i < 16; i++ {
		srv.adm.load.observe(classQuery, 80*time.Millisecond, time.Now())
	}
	// 5ms of budget cannot cover 80ms of estimated work.
	var dl *DeadlineError
	if _, err := cl.Do(Request{Op: "queue", DeadlineMS: 5}); !errors.As(err, &dl) {
		t.Fatalf("unservable request error = %v, want DeadlineError", err)
	}
	if n := srv.adm.tally[cntDeadline].Load(); n != 1 {
		t.Fatalf("deadline counter = %d, want 1", n)
	}
	// A generous budget sails through.
	if _, err := cl.Do(Request{Op: "queue", DeadlineMS: 60_000}); err != nil {
		t.Fatalf("serviceable request failed: %v", err)
	}
	// An already-expired (hostile, negative) budget is refused cheapest.
	if _, err := cl.Do(Request{Op: "queue", DeadlineMS: -1}); !errors.As(err, &dl) {
		t.Fatalf("expired-budget error = %v, want DeadlineError", err)
	}
}

// TestDeadlineBudgetRefusedBeforeMutation: an expired budget stops a
// journaled mutation before it applies or journals anything.
func TestDeadlineBudgetRefusedBeforeMutation(t *testing.T) {
	dir := t.TempDir()
	ctl, err := OpenJournaled(testControllerConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	spent := budget{deadline: time.Now().Add(-time.Second)}
	submit := func(token, name string) *Entry {
		return &Entry{Op: "submit", Token: token, App: "minife", Nodes: 1, Walltime: 1800, Runtime: 900, Name: name}
	}
	if err := ctl.mutate(spent, submit("tok-dead", "x")); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-budget submit error = %v, want ErrDeadlineExceeded", err)
	}
	if n := len(ctl.Queue()); n != 0 {
		t.Fatalf("expired-budget submit enqueued %d jobs", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "tok-dead") {
		t.Fatal("refused mutation reached the journal")
	}
	// A live budget proceeds normally.
	alive := budget{deadline: time.Now().Add(time.Minute)}
	if err := ctl.mutate(alive, submit("tok-live", "y")); err != nil {
		t.Fatal(err)
	}
	if n := len(ctl.Queue()); n != 1 {
		t.Fatalf("queue = %d, want 1", n)
	}
}

// TestClientDeadlineBudgetSpansRetries: with DeadlineBudget set and the
// server permanently saturated, Do gives up with a DeadlineError instead of
// sleeping past the budget.
func TestClientDeadlineBudgetSpansRetries(t *testing.T) {
	cl, srv, _ := overloadServer(t, OverloadConfig{MaxInflight: 1, RetryAfter: 20 * time.Millisecond})
	srv.adm.slots <- struct{}{} // permanently saturated
	cl.DeadlineBudget = 50 * time.Millisecond
	cl.Retry = &retry.Policy{
		MaxAttempts: 100,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  1,
		Sleep:       time.Sleep,
	}
	start := time.Now()
	var dl *DeadlineError
	if _, err := cl.Do(Request{Op: "queue"}); !errors.As(err, &dl) {
		t.Fatalf("budget-bound retries error = %v, want DeadlineError", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do slept %v, far past its 50ms budget", elapsed)
	}
}

// --- brownout behavior end to end -------------------------------------

// serveConfig returns overload knobs with the shedder and ladder on and
// windows sized for fast tests.
func serveConfig() OverloadConfig {
	return OverloadConfig{
		RetryAfter:           2 * time.Millisecond,
		ShedTarget:           5 * time.Millisecond,
		ShedWindow:           20 * time.Millisecond,
		BrownoutStep:         30 * time.Millisecond,
		BrownoutCooldown:     60 * time.Millisecond,
		BrownoutHistoryLimit: 4,
		BrownoutStaleFor:     50 * time.Millisecond,
	}
}

// TestBrownoutReadOnlyShedsSubmits: at the readonly rung submit-class verbs
// are shed with a structured SHED response while control verbs and reads
// still land.
func TestBrownoutReadOnlyShedsSubmits(t *testing.T) {
	cl, srv, _ := overloadServer(t, serveConfig())
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutReadOnly
	srv.adm.mu.Unlock()
	// Keep the shedder idle: this test isolates the ladder's readonly rung.
	var busy *BusyError
	_, err := cl.Do(Request{Op: "submit", App: "minife", Nodes: 1, Walltime: 1800, Runtime: 900, Name: "x"})
	if !errors.As(err, &busy) || !busy.Shed {
		t.Fatalf("submit at readonly = %v, want shed BusyError", err)
	}
	if _, err := cl.Do(Request{Op: "queue"}); err != nil {
		t.Fatalf("read at readonly failed: %v", err)
	}
	if _, err := cl.Do(Request{Op: "config"}); err != nil {
		t.Fatalf("control verb at readonly failed: %v", err)
	}
	if n := srv.adm.tally[cntShed].Load(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}
}

// TestBrownoutPagedClampsHistory: at paged and above, history replies are
// clamped to the brownout cap even when the client asks for more; live
// queue replies are untouched (squeue must not silently hide jobs).
func TestBrownoutPagedClampsHistory(t *testing.T) {
	over := serveConfig()
	jobs := make([]JobInfo, 10)
	for i := range jobs {
		jobs[i] = JobInfo{ID: int64(i + 1)}
	}
	// Normal: explicit big limit honored.
	resp := page(queueView{live: jobs}, Request{History: true, Limit: 10}, over, BrownoutNormal)
	if len(resp.Jobs) != 10 {
		t.Fatalf("normal history rows = %d, want 10", len(resp.Jobs))
	}
	// Paged: clamped to the brownout cap, Total still honest.
	resp = page(queueView{live: jobs}, Request{History: true, Limit: 10}, over, BrownoutPaged)
	if len(resp.Jobs) != 4 || resp.Total != 10 {
		t.Fatalf("paged history rows = %d (total %d), want 4 (total 10)", len(resp.Jobs), resp.Total)
	}
	// Paged, live queue: no clamp.
	resp = page(queueView{live: jobs}, Request{}, over, BrownoutPaged)
	if len(resp.Jobs) != 10 {
		t.Fatalf("paged live rows = %d, want 10 (live queue must not be clamped)", len(resp.Jobs))
	}
}

// TestBrownoutStaleReads: at the stale rung, reads are served from the TTL
// snapshot cache — a submit between two reads is invisible until the TTL
// lapses, and the stale-read counter ticks.
func TestBrownoutStaleReads(t *testing.T) {
	cl, srv, _ := overloadServer(t, serveConfig())
	if _, err := cl.Do(Request{Op: "submit", App: "minife", Nodes: 1, Walltime: 1800, Runtime: 900, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutStale
	srv.adm.mu.Unlock()
	r1, err := cl.Do(Request{Op: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(Request{Op: "submit", App: "minife", Nodes: 1, Walltime: 1800, Runtime: 900, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Do(Request{Op: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Jobs) != len(r1.Jobs) {
		t.Fatalf("stale read saw the new submit: %d then %d rows", len(r1.Jobs), len(r2.Jobs))
	}
	if srv.adm.tally[cntStale].Load() == 0 {
		t.Fatal("stale-read counter never ticked")
	}
	// After the TTL the cache refreshes.
	time.Sleep(60 * time.Millisecond)
	r3, err := cl.Do(Request{Op: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Jobs) != len(r1.Jobs)+1 {
		t.Fatalf("post-TTL read rows = %d, want %d", len(r3.Jobs), len(r1.Jobs)+1)
	}
}

// TestBrownoutJournaledAndReplayable: ladder transitions land in the journal
// as brownout entries, and a restart replays the journal cleanly (brownout
// entries are audit trail, not state).
func TestBrownoutJournaledAndReplayable(t *testing.T) {
	dir := t.TempDir()
	cfg := testControllerConfig()
	cfg.Overload = serveConfig()
	ctl, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Submit("minife", 1, 1800, 900, "pre"); err != nil {
		t.Fatal(err)
	}
	// Drive the ladder by hand through its callback path.
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutPaged
	srv.adm.count(cntBrownoutStep)
	srv.adm.mu.Unlock()
	srv.adm.onStep(BrownoutPaged, brownoutName(BrownoutPaged))
	srv.Close()
	ctl.Close()

	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"brownout"`) {
		t.Fatalf("journal has no brownout entry:\n%s", data)
	}
	ctl2, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatalf("replay with brownout entries failed: %v", err)
	}
	defer ctl2.Close()
	if n := len(ctl2.Queue()); n != 1 {
		t.Fatalf("replayed queue = %d jobs, want 1", n)
	}
	_ = addr
}

// TestHealthExposesServeCounters: with serve features on, health replies
// carry the brownout state and the degradation counters.
func TestHealthExposesServeCounters(t *testing.T) {
	cl, srv, _ := overloadServer(t, serveConfig())
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutStale
	srv.adm.mu.Unlock()
	srv.adm.tally[cntShed].Add(3)
	srv.adm.tally[cntDeadline].Add(2)
	resp, err := cl.HealthFull()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Brownout == "" {
		t.Fatal("health reply missing brownout state")
	}
	if resp.Serve == nil {
		t.Fatal("health reply missing serve counters")
	}
	if resp.Serve.Shed != 3 || resp.Serve.DeadlineExceeded != 2 {
		t.Fatalf("serve counters = %+v, want shed 3, deadline 2", resp.Serve)
	}
	if resp.Serve.BrownoutState != "stale" {
		t.Fatalf("brownout state = %q, want stale", resp.Serve.BrownoutState)
	}
}

// TestHealthProbesUnwindLadder: after load stops, health probes alone (they
// bypass admission but tick the ladder) walk a browned-out server back to
// NORMAL — the recovery path the chaos acceptance test relies on.
func TestHealthProbesUnwindLadder(t *testing.T) {
	over := serveConfig()
	over.BrownoutCooldown = 20 * time.Millisecond
	cl, srv, _ := overloadServer(t, over)
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutReadOnly
	srv.adm.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := cl.HealthFull()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Brownout == "normal" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ladder never unwound; still at %d", srv.adm.counters().BrownoutLevel)
}

// --- byte-compatibility differential ----------------------------------

// TestServeByteCompatFeaturesOff: with the serve features off and no
// deadline on the wire, raw responses must not contain any of the new JSON
// keys — clients from the previous release see byte-identical behavior.
func TestServeByteCompatFeaturesOff(t *testing.T) {
	_, _, addr := overloadServer(t, OverloadConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	newKeys := []string{"shed", "deadline_exceeded", "brownout", "serve", "deadline_ms"}
	for _, raw := range []string{
		`{"op":"health"}`,
		`{"op":"queue"}`,
		`{"op":"submit","app":"minife","nodes":1,"walltime":1800,"runtime":900,"name":"x"}`,
		`{"op":"queue","history":true}`,
		`{"op":"nodes"}`,
		`{"op":"config"}`,
		`{"op":"now"}`,
	} {
		if _, err := conn.Write([]byte(raw + "\n")); err != nil {
			t.Fatal(err)
		}
		line := make([]byte, 64*1024)
		k, err := conn.Read(line)
		if err != nil {
			t.Fatal(err)
		}
		got := string(line[:k])
		for _, key := range newKeys {
			if strings.Contains(got, `"`+key+`"`) {
				t.Errorf("features-off response to %s leaks %q key: %s", raw, key, got)
			}
		}
	}
}

// TestServeByteCompatJournalDifferential: the same deadline-free op sequence
// produces byte-identical journals whether the serve features are off or on
// (but unpressured) — enabling the features costs nothing until pressure.
func TestServeByteCompatJournalDifferential(t *testing.T) {
	runOps := func(over OverloadConfig) []byte {
		t.Helper()
		dir := t.TempDir()
		cfg := testControllerConfig()
		cfg.Overload = over
		ctl, err := OpenJournaled(cfg, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(ctl)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.SubmitToken("tok-1", "minife", 2, 3600, 1800, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit("minife", 1, 1800, 900, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Advance(100); err != nil {
			t.Fatal(err)
		}
		if err := cl.DrainNode(1); err != nil {
			t.Fatal(err)
		}
		if err := cl.ResumeNode(1); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		srv.Close()
		ctl.Close()
		data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	off := runOps(OverloadConfig{})
	on := runOps(serveConfig())
	if string(off) != string(on) {
		t.Fatalf("journals diverged:\n--- features off ---\n%s\n--- features on ---\n%s", off, on)
	}
}

// TestServeCountersJSONShape: the counters marshal under the documented keys
// (the bench artifact and operators depend on them).
func TestServeCountersJSONShape(t *testing.T) {
	blob, err := json.Marshal(ServeCounters{BrownoutState: "normal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"busy", "shed", "deadline_exceeded", "stale_reads", "brownout_level", "brownout_state", "brownout_steps"} {
		if !strings.Contains(string(blob), `"`+key+`"`) {
			t.Errorf("ServeCounters JSON missing %q: %s", key, blob)
		}
	}
}
