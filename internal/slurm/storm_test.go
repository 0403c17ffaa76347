package slurm

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// fakeServer answers the wire with whatever reply makes of each request: the
// storm's bookkeeping is tested against servers that misbehave on purpose.
func fakeServer(t *testing.T, reply func(Request) Response) string {
	t.Helper()
	srv := &lineproto.Server{Open: func(int64) lineproto.Handler {
		return func(line []byte) (any, bool) {
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				return Response{Error: err.Error()}, true
			}
			return reply(req), false
		}
	}}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestStormDisruptFiresOnce: Disrupt runs exactly once, at the DisruptAt-th
// distinct acknowledgement (replays do not count), and late but still once
// on a storm too small to get there.
func TestStormDisruptFiresOnce(t *testing.T) {
	_, srv, addr := overloadServer(t, OverloadConfig{})
	for _, c := range []struct {
		name              string
		submits, at, jobs int
	}{
		{"mid-storm", 6, 3, 3},
		{"late", 2, 5, 2},
	} {
		before := len(srv.ctl.Queue())
		var fired, jobsAtFire int
		res, err := Storm{Addrs: addr, Seed: uint64(c.at), Clients: 1, Submits: c.submits, DisruptAt: c.at,
			Disrupt: func() {
				fired++
				jobsAtFire = len(srv.ctl.Queue()) - before
			}}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fired != 1 || jobsAtFire != c.jobs {
			t.Errorf("%s: Disrupt fired %d times with %d jobs submitted, want once with %d", c.name, fired, jobsAtFire, c.jobs)
		}
		if len(res.Acked) != c.submits || res.Resubmits == 0 || res.DuplicateIDs != 0 || res.Failures != 0 {
			t.Errorf("%s: %v", c.name, res)
		}
	}
}

// TestStormOpenLoopDropsWhenPoolEmpty: with both clients parked on a stalled
// server, arrivals are dropped — counted, never queued for later — so every
// arrival is either a request that was sent or a drop, and the storm ends
// with its schedule instead of working off a backlog.
func TestStormOpenLoopDropsWhenPoolEmpty(t *testing.T) {
	_, srv, addr := overloadServer(t, OverloadConfig{})
	srv.ctl.mu.Lock() // every submit and queue parks on the controller
	const duration = 300 * time.Millisecond
	time.AfterFunc(duration, srv.ctl.mu.Unlock)
	res, err := Storm{Addrs: addr, Seed: 3, Clients: 2, Rate: 500, Duration: duration, Timeout: 5 * time.Second}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	sent := 0
	for _, c := range res.Classes {
		sent += c.Sent
	}
	if res.Dropped < res.Arrivals/2 || res.Arrivals != res.Dropped+sent-res.Resubmits {
		t.Errorf("%d arrivals, %d dropped, %d sent (%d of them replays): want mostly drops and none unaccounted for",
			res.Arrivals, res.Dropped, sent, res.Resubmits)
	}
	if res.Elapsed > duration+time.Second {
		t.Errorf("storm ran %s on a %s schedule: arrivals were queued", res.Elapsed, duration)
	}
}

// TestStormCountsDuplicateIDs: a server without idempotency gives a replayed
// token a second job; the storm must say so.
func TestStormCountsDuplicateIDs(t *testing.T) {
	var next atomic.Int64
	addr := fakeServer(t, func(req Request) Response {
		return Response{OK: true, ID: next.Add(1), Health: HealthOK}
	})
	res, err := Storm{Addrs: addr, Seed: 1, Clients: 1, Submits: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Tokens 0 and 3 are replayed; each replay drew a fresh ID.
	if res.Resubmits != 2 || res.DuplicateIDs != 2 || len(res.Acked) != 4 {
		t.Errorf("resubmits %d, duplicate IDs %d, acked %d; want 2, 2, 4", res.Resubmits, res.DuplicateIDs, len(res.Acked))
	}
	if res.Health.Health != HealthOK {
		t.Errorf("post-storm health snapshot = %+v", res.Health)
	}
}

// TestStormAuditVerdicts: Audit names a lost, a duplicated and a wrong-ID
// token, and otherwise returns how many jobs nobody was acknowledged for —
// against a server that clamps every page to two rows.
func TestStormAuditVerdicts(t *testing.T) {
	jobs := []JobInfo{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}, {ID: 3, Name: "b"}, {ID: 9, Name: "x"}, {ID: 10, Name: "y"}}
	addr := fakeServer(t, func(req Request) Response {
		page := jobs[min(req.Offset, len(jobs)):]
		return Response{OK: true, Jobs: page[:min(2, len(page))], Total: len(jobs)}
	})
	for _, c := range []struct {
		acked  map[string]int64
		extras int
		err    string
	}{
		{map[string]int64{"a": 1, "y": 10}, 3, ""},
		{map[string]int64{}, 5, ""},
		{map[string]int64{"a": 1, "gone": 4}, 0, "gone (job 4) lost"},
		{map[string]int64{"b": 2}, 0, "b present 2 times"},
		{map[string]int64{"y": 7}, 0, "acknowledged as job 7 but server has 10"},
	} {
		extras, err := StormResult{Acked: c.acked}.Audit(addr, 1)
		if c.err == "" && (err != nil || extras != c.extras) {
			t.Errorf("audit %v = %d, %v; want %d extras", c.acked, extras, err, c.extras)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("audit %v = %v; want an error naming %q", c.acked, err, c.err)
		}
	}
}

// TestStormAuditPagesThroughBrownout: at PAGED and above the server clamps
// even an explicit page size to BrownoutHistoryLimit. The audit used to step
// by the size it asked for, skipped the rows in between and reported
// acknowledged jobs lost that were there.
func TestStormAuditPagesThroughBrownout(t *testing.T) {
	_, srv, addr := overloadServer(t, OverloadConfig{
		ShedTarget: time.Hour, ShedWindow: time.Hour,
		BrownoutStep: time.Hour, BrownoutCooldown: time.Hour, BrownoutHistoryLimit: 4})
	srv.adm.mu.Lock()
	srv.adm.ladder.level = BrownoutPaged // held: an hour to move either way
	srv.adm.mu.Unlock()
	res, err := Storm{Addrs: addr, Seed: 5, Clients: 2, Submits: 5}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Acked) != 10 || res.Health.Brownout != brownoutName(BrownoutPaged) {
		t.Fatalf("want 10 acked on a paged server: %v", res)
	}
	if extras, err := res.Audit(addr, 5); err != nil || extras != 0 {
		t.Fatalf("audit of a browned-out server: %d extras, %v", extras, err)
	}
}

// TestStormRefusesEmptyShape: a storm with no arrival process is a caller's
// mistake, not an empty result.
func TestStormRefusesEmptyShape(t *testing.T) {
	for _, s := range []Storm{{}, {Clients: 2}, {Clients: 2, Rate: 10}, {Submits: 3}} {
		if _, err := s.Run(); err == nil {
			t.Errorf("%+v ran", s)
		}
	}
}
