package slurm

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
)

// --- stage order --------------------------------------------------------

// stageProbe is what TestAdmissionStageOrder reads back after each request:
// every piece of state a stage would have touched had it run.
type stageProbe struct {
	busy, shed, deadline int64
	ladderTicked         bool    // the ladder saw a sample
	tokens               float64 // what the connection's bucket holds
	slots                int     // in-flight slots taken
}

func probeStages(srv *Server, bucket *tokenBucket) stageProbe {
	a := srv.adm
	a.mu.Lock()
	ticked := !a.ladder.pressSince.IsZero() || !a.ladder.quietSince.IsZero()
	a.mu.Unlock()
	return stageProbe{
		busy:         a.tally[cntBusy].Load(),
		shed:         a.tally[cntShed].Load(),
		deadline:     a.tally[cntDeadline].Load(),
		ladderTicked: ticked,
		tokens:       bucket.tokens,
		slots:        len(a.slots),
	}
}

// TestAdmissionStageOrder pins the order of the pipeline: a request several
// stages would refuse is refused by the first of them, and the stages after
// it are untouched — no counter of theirs moves, the ladder is not ticked,
// the bucket is not charged, no slot is taken.
func TestAdmissionStageOrder(t *testing.T) {
	const submit = `{"op":"submit","app":"minife","nodes":1,"walltime":1800,"runtime":900,"name":"x"}`
	cases := []struct {
		name      string
		line      string
		shedLevel int  // pinned shed level
		readOnly  bool // ladder pinned at the read-only rung
		tokens    float64
		slotsFull bool
		check     func(t *testing.T, resp Response, before, after stageProbe)
	}{
		{
			name: "expired deadline beats shed level and empty bucket",
			line: `{"op":"queue","deadline_ms":-1}`, shedLevel: shedSubmits, tokens: 0,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.DeadlineExceeded || resp.Busy || resp.Shed {
					t.Fatalf("reply = %+v, want DEADLINE_EXCEEDED only", resp)
				}
				if after.deadline != before.deadline+1 || after.shed != before.shed || after.busy != before.busy {
					t.Fatalf("counters moved %+v -> %+v, want deadline +1 only", before, after)
				}
				if after.ladderTicked {
					t.Fatal("the ladder was ticked by a request the deadline stage refused")
				}
				if after.tokens != before.tokens {
					t.Fatalf("bucket charged: %g -> %g tokens", before.tokens, after.tokens)
				}
			},
		},
		{
			name: "shed level beats empty bucket and full slots",
			line: `{"op":"queue"}`, shedLevel: shedQueries, tokens: 0, slotsFull: true,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.Shed || !resp.Busy || !strings.HasPrefix(resp.Error, "shed: query class") {
					t.Fatalf("reply = %+v, want SHED of the query class", resp)
				}
				if after.shed != before.shed+1 || after.busy != before.busy {
					t.Fatalf("counters moved %+v -> %+v, want shed +1 only", before, after)
				}
				if !after.ladderTicked {
					t.Fatal("the ladder stage precedes the shed stage and was not ticked")
				}
			},
		},
		{
			name: "shed keeps the bucket's tokens",
			line: submit, shedLevel: shedSubmits, tokens: 1,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.Shed {
					t.Fatalf("reply = %+v, want SHED", resp)
				}
				if after.tokens != 1 {
					t.Fatalf("bucket holds %g tokens after a shed, want its 1 untouched", after.tokens)
				}
			},
		},
		{
			name: "read-only rung sheds a submit once, before the shed level is asked",
			line: submit, shedLevel: shedSubmits, readOnly: true, tokens: 1,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.Shed || !strings.HasPrefix(resp.Error, "shed: submit class") {
					t.Fatalf("reply = %+v, want SHED of the submit class", resp)
				}
				if after.shed != before.shed+1 {
					t.Fatalf("shed counter %d -> %d, want +1", before.shed, after.shed)
				}
			},
		},
		{
			name: "control verb passes the shed stage at shedSubmits",
			line: `{"op":"config"}`, shedLevel: shedSubmits, tokens: 1,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.OK || resp.Cluster == "" {
					t.Fatalf("reply = %+v, want the config payload", resp)
				}
				if after.shed != before.shed || after.busy != before.busy {
					t.Fatalf("counters moved %+v -> %+v on an admitted request", before, after)
				}
				if after.tokens != 0 || after.slots != before.slots {
					t.Fatalf("admitted request left %g tokens and %d slots, want 0 tokens and the slot returned", after.tokens, after.slots)
				}
			},
		},
		{
			name: "empty bucket beats full slots, with the bucket's computed wait",
			line: `{"op":"queue"}`, tokens: 0, slotsFull: true,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.Busy || resp.Shed || resp.RetryAfterMS != 250 {
					t.Fatalf("reply = %+v, want BUSY with the bucket's 250 ms", resp)
				}
				if after.busy != before.busy+1 {
					t.Fatalf("busy counter %d -> %d, want +1", before.busy, after.busy)
				}
			},
		},
		{
			name: "full slots refuse with the configured hint",
			line: `{"op":"queue"}`, tokens: 1, slotsFull: true,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !resp.Busy || resp.RetryAfterMS != 70 {
					t.Fatalf("reply = %+v, want BUSY with the configured 70 ms", resp)
				}
				if after.tokens != 0 {
					t.Fatalf("bucket holds %g tokens: the bucket stage precedes the slot stage and charges first", after.tokens)
				}
			},
		},
		{
			name: "malformed line is charged one token and nothing else",
			line: `{"op":`, shedLevel: shedSubmits, tokens: 1, slotsFull: true,
			check: func(t *testing.T, resp Response, before, after stageProbe) {
				if !strings.HasPrefix(resp.Error, "bad request:") || resp.Busy {
					t.Fatalf("reply = %+v, want a plain bad-request error", resp)
				}
				if after.tokens != 0 {
					t.Fatalf("bucket holds %g tokens after a malformed line, want 0", after.tokens)
				}
				if after.busy != before.busy || after.shed != before.shed || after.ladderTicked {
					t.Fatalf("a malformed line reached the pipeline: %+v -> %+v", before, after)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			over := OverloadConfig{
				MaxInflight: 1, RateLimit: 4, RateBurst: 1, RetryAfter: 70 * time.Millisecond,
				ShedTarget: time.Hour, ShedWindow: time.Hour,
				BrownoutStep: time.Hour, BrownoutCooldown: time.Hour,
			}
			srv := NewServer(refusalController(t, over))
			frozen := time.Unix(9000, 0) // no refill, no window ever elapses
			srv.now = func() time.Time { return frozen }
			srv.adm.load.mu.Lock()
			srv.adm.load.shed.level = c.shedLevel
			srv.adm.load.mu.Unlock()
			if c.readOnly {
				srv.adm.mu.Lock()
				srv.adm.ladder.level = BrownoutReadOnly
				srv.adm.mu.Unlock()
			}
			if c.slotsFull {
				srv.adm.slots <- struct{}{}
			}
			bucket := newTokenBucket(over.RateLimit, over.RateBurst, frozen)
			bucket.tokens = c.tokens
			before := probeStages(srv, bucket)
			resp, hangup := srv.serveLine([]byte(c.line), bucket)
			if hangup {
				t.Fatal("admission asked to hang up")
			}
			c.check(t, resp, before, probeStages(srv, bucket))
		})
	}
}

// --- the merged machines ------------------------------------------------

// refShedder is the shed-level machine as serve.go had it before it and the
// ladder were folded onto one hysteresis, copied verbatim (less its mutex).
type refShedder struct {
	target, window                           time.Duration
	level                                    int
	lat                                      time.Duration
	lastObs, lastSat, aboveSince, belowSince time.Time
}

func (s *refShedder) observe(d time.Duration, now time.Time) {
	s.lastObs = now
	if s.lat == 0 {
		s.lat = d
	} else {
		s.lat += (d - s.lat) / 8
	}
	s.stepLocked(now)
}

func (s *refShedder) saturate(now time.Time) {
	s.lastSat = now
	s.stepLocked(now)
}

func (s *refShedder) current(now time.Time) int {
	if !s.lastObs.IsZero() {
		for now.Sub(s.lastObs) >= s.window {
			s.lat /= 2
			s.lastObs = s.lastObs.Add(s.window)
			s.stepLocked(s.lastObs)
			if s.lat == 0 && s.level == shedNone {
				s.lastObs = now
				break
			}
		}
	}
	s.stepLocked(now)
	return s.level
}

func (s *refShedder) pressuredLocked(now time.Time) bool {
	if s.lat > s.target {
		return true
	}
	return !s.lastSat.IsZero() && now.Sub(s.lastSat) < s.window
}

func (s *refShedder) stepLocked(now time.Time) {
	if s.pressuredLocked(now) {
		s.belowSince = time.Time{}
		if s.aboveSince.IsZero() {
			s.aboveSince = now
			return
		}
		if now.Sub(s.aboveSince) >= s.window && s.level < shedSubmits {
			s.level++
			s.aboveSince = now
		}
		return
	}
	s.aboveSince = time.Time{}
	if s.belowSince.IsZero() {
		s.belowSince = now
		return
	}
	if now.Sub(s.belowSince) >= s.window && s.level > shedNone {
		s.level--
		s.belowSince = now
	}
}

// refLadder is serve.go's brownoutLadder.observe, copied verbatim (less its
// mutex and its journal callback).
type refLadder struct {
	step, cooldown         time.Duration
	level                  int
	steps                  int64
	pressSince, quietSince time.Time
}

func (b *refLadder) observe(pressure bool, now time.Time) int {
	if pressure {
		b.quietSince = time.Time{}
		if b.pressSince.IsZero() {
			b.pressSince = now
			return b.level
		}
		if now.Sub(b.pressSince) >= b.step && b.level < BrownoutReadOnly {
			b.level++
			b.steps++
			b.pressSince = now
		}
		return b.level
	}
	b.pressSince = time.Time{}
	if b.quietSince.IsZero() {
		b.quietSince = now
		return b.level
	}
	if now.Sub(b.quietSince) >= b.cooldown && b.level > BrownoutNormal {
		b.level--
		b.steps++
		b.quietSince = now
	}
	return b.level
}

// TestHysteresisMatchesBothOldMachines: over 20 seeded 5000-step schedules —
// slow and fast completions, saturation events, bare level reads, and idle
// gaps many windows long that exercise the window-by-window decay replay —
// the one hysteresis yields, step for step, the level trajectory and the
// transition count of the shedder and of the ladder it replaced.
func TestHysteresisMatchesBothOldMachines(t *testing.T) {
	const (
		target, window = 5 * time.Millisecond, 20 * time.Millisecond
		step, cooldown = 30 * time.Millisecond, 120 * time.Millisecond
	)
	for seed := uint64(1); seed <= 20; seed++ {
		rng := des.NewRNG(seed).Stream("admission/hysteresis")
		ref := &refShedder{target: target, window: window}
		got := newLoadSignal(target, window)
		refL := &refLadder{step: step, cooldown: cooldown}
		gotL := &hysteresis{up: step, down: cooldown, max: BrownoutReadOnly}
		now := time.Unix(10_000, 0)
		var shedMoves, ladderMoves int64
		for i := 0; i < 5000; i++ {
			dt := time.Duration(rng.Uniform(float64(100*time.Microsecond), float64(15*time.Millisecond)))
			if rng.Float64() < 0.02 {
				dt = time.Duration(rng.Uniform(float64(window), float64(40*window))) // idle gap
			}
			now = now.Add(dt)
			before := got.shed.level
			switch p := rng.Float64(); {
			case p < 0.35:
				d := time.Duration(rng.Uniform(float64(time.Millisecond), float64(30*time.Millisecond)))
				ref.observe(d, now)
				got.observe(classQuery, d, now)
			case p < 0.6:
				d := time.Duration(rng.Uniform(float64(10*time.Microsecond), float64(time.Millisecond)))
				ref.observe(d, now)
				got.observe(classSubmit, d, now)
			case p < 0.7:
				ref.saturate(now)
				got.saturate(now)
			}
			want, have := ref.current(now), got.shedLevel(now)
			if want != have || ref.lat != got.lat {
				t.Fatalf("seed %d step %d: shed level %d (lat %v), reference %d (lat %v)", seed, i, have, got.lat, want, ref.lat)
			}
			if have != before {
				shedMoves++
			}

			wantL := refL.observe(want > shedNone, now)
			haveL, moved := gotL.step(have > shedNone, now)
			if moved {
				ladderMoves++
			}
			if wantL != haveL {
				t.Fatalf("seed %d step %d: ladder at %d, reference at %d", seed, i, haveL, wantL)
			}
		}
		if ladderMoves != refL.steps {
			t.Fatalf("seed %d: ladder made %d transitions, reference %d", seed, ladderMoves, refL.steps)
		}
		if ladderMoves == 0 || shedMoves == 0 {
			t.Fatalf("seed %d: schedule never moved a level (shed %d, ladder %d); the comparison proved nothing", seed, shedMoves, ladderMoves)
		}
	}
}

// --- a refusal does not wait on the controller ---------------------------

// TestAdmissionRefusalDoesNotWaitOnController: with Controller.mu held — a
// stalled controller, the very condition that causes refusals — a request
// refused by the in-flight bound, the shed level, an expired deadline or the
// connection cap is still answered at once. Every
// reply used to be stamped through Controller.Now(), which took the lock.
func TestAdmissionRefusalDoesNotWaitOnController(t *testing.T) {
	over := OverloadConfig{MaxConns: 3, MaxInflight: 1, ShedTarget: time.Hour, ShedWindow: time.Hour}
	ctl := refusalController(t, over)
	srv, addr := refusalServer(t, ctl, nil)
	holder, probe := dialRaw(t, addr), dialRaw(t, addr)
	if r := probe.ask(`{"op":"advance","seconds":60}`); !strings.Contains(r, `"now":60`) {
		t.Fatalf("advance reply %s does not carry the post-advance clock", r)
	}

	ctl.mu.Lock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			ctl.mu.Unlock()
		}
	}
	defer unlock()
	within := func(what string, w *rawWire, send string, want string) {
		t.Helper()
		start := time.Now()
		if send != "" {
			w.send(send)
		}
		w.conn.SetReadDeadline(start.Add(200 * time.Millisecond))
		line, err := w.r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: no reply within 200 ms with the controller lock held: %v", what, err)
		}
		if !strings.Contains(line, want) || !strings.Contains(line, `"now":60`) {
			t.Fatalf("%s: reply %s, want %s stamped with the clock", what, line, want)
		}
	}

	within("expired deadline", probe, `{"op":"queue","deadline_ms":-1}`, `"deadline_exceeded":true`)

	// The holder's queue takes the one slot and parks on the controller lock.
	holder.send(`{"op":"queue"}`)
	waitFor(t, 2*time.Second, "the holder to take the slot", func() bool { return len(srv.adm.slots) == 1 })
	within("in-flight full", probe, `{"op":"queue"}`, `"busy":true`)

	srv.adm.load.mu.Lock()
	srv.adm.load.shed.level = shedQueries
	srv.adm.load.mu.Unlock()
	within("shed level", probe, `{"op":"queue"}`, `"shed":true`)

	dialRaw(t, addr) // the third connection; the fourth is over the cap
	within("conn cap", dialRaw(t, addr), "", `"busy":true`)

	unlock()
	if r := holder.read(); !strings.Contains(r, `"ok":true`) {
		t.Fatalf("the parked queue came back %s", r)
	}
}

// TestAdmissionLadderStepJournaledOutsideLock: a rung transition is journaled
// (lock, append, fsync) after the ladder's mutex is released, so admissions
// and health probes running meanwhile do not queue behind that fsync.
func TestAdmissionLadderStepJournaledOutsideLock(t *testing.T) {
	over := OverloadConfig{ShedTarget: time.Hour, ShedWindow: time.Hour, BrownoutStep: time.Millisecond, BrownoutCooldown: time.Hour}
	srv := NewServer(refusalController(t, over))
	journaling, release := make(chan int, 1), make(chan struct{})
	srv.adm.onStep = func(level int, name string) {
		journaling <- level
		<-release
	}
	srv.adm.load.mu.Lock()
	srv.adm.load.shed.level = shedQueries // pressure, pinned for an hour
	srv.adm.load.mu.Unlock()
	t0 := time.Now()
	srv.adm.brownout(t0)
	stepped := make(chan int, 1)
	go func() { stepped <- srv.adm.brownout(t0.Add(time.Second)) }()
	if level := <-journaling; level != BrownoutPaged {
		t.Fatalf("journaling rung %d, want %d", level, BrownoutPaged)
	}
	// The transition's journal write is in progress. The ladder must answer.
	answered := make(chan *ServeCounters, 1)
	go func() {
		srv.adm.brownout(t0.Add(time.Second))
		answered <- srv.adm.counters()
	}()
	select {
	case sc := <-answered:
		if sc.BrownoutLevel != BrownoutPaged || sc.BrownoutSteps != 1 {
			t.Fatalf("counters during the journal write = %+v, want rung 1 after 1 step", sc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the ladder was locked while its transition was being journaled")
	}
	close(release)
	if level := <-stepped; level != BrownoutPaged {
		t.Fatalf("stepping call returned rung %d, want %d", level, BrownoutPaged)
	}
}

// --- replicate holds no in-flight slot -----------------------------------

// TestAdmissionReplicateExemptFromInflight: a standby whose only in-flight
// slot is held (by a slow read, say) still takes the primary's push — the
// verb table prices replicate at nothing for the bucket, and the slot stage
// honours that the same way — so the submit is acknowledged and both journals
// hold the same bytes; an ordinary query against that standby is still BUSY.
func TestAdmissionReplicateExemptFromInflight(t *testing.T) {
	a := startNode(t)
	cfg := testControllerConfig()
	cfg.Overload = OverloadConfig{MaxInflight: 1}
	dirB := t.TempDir()
	ctlB, err := OpenJournaled(cfg, dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctlB.Close() })
	srvB, addrB := refusalServer(t, ctlB, nil)
	if err := a.ctl.StartHA(HAOptions{Peer: addrB, Lease: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := ctlB.StartHA(HAOptions{Standby: true, Peer: a.addr, Lease: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	srvB.adm.slots <- struct{}{} // the standby's one slot, held

	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SubmitToken("tok-1", "minife", 1, 3600, 1800, "job"); err != nil {
		t.Fatalf("submit on the primary with the standby's slot held: %v", err)
	}
	ja, err := os.ReadFile(journalFile(a.dir))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(journalFile(dirB))
	if err != nil {
		t.Fatal(err)
	}
	if len(ja) == 0 || string(ja) != string(jb) {
		t.Fatalf("journals differ after the acknowledged submit: primary %d bytes, standby %d bytes", len(ja), len(jb))
	}

	clB, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	var busy *BusyError
	if _, err := clB.Do(Request{Op: "queue"}); !errors.As(err, &busy) {
		t.Fatalf("queue against the saturated standby = %v, want BusyError", err)
	}
}
