package slurm

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/vfs"
)

// updateRefusals rewrites testdata/refusals.golden. The file was recorded from
// the commit before admission became one pipeline; regenerating it from a
// later commit defeats what it is for.
var updateRefusals = flag.Bool("update-refusals", false, "rewrite testdata/refusals.golden (record from the parent commit only)")

// rawWire is one client connection driven a line at a time, so the test sees
// the reply bytes and not what Client.Do makes of them.
type rawWire struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawWire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawWire{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (w *rawWire) send(line string) {
	w.t.Helper()
	if _, err := w.conn.Write([]byte(line + "\n")); err != nil {
		w.t.Fatal(err)
	}
}

func (w *rawWire) read() string {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := w.r.ReadString('\n')
	if err != nil {
		w.t.Fatalf("read reply: %v", err)
	}
	return strings.TrimSuffix(line, "\n")
}

func (w *rawWire) ask(line string) string {
	w.t.Helper()
	w.send(line)
	return w.read()
}

// stepClock is a server clock that moves a fixed step every time it is read
// (and by jump when told), so measured service times, bucket refills and
// hysteresis windows are the same on every run.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

func (c *stepClock) jump(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// refusalServer boots a server on ctl with an optional pinned clock.
func refusalServer(t *testing.T, ctl *Controller, clock *stepClock) (*Server, string) {
	t.Helper()
	srv := NewServer(ctl)
	if clock != nil {
		srv.now = clock.now
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func refusalController(t *testing.T, over OverloadConfig) *Controller {
	t.Helper()
	cfg := testControllerConfig()
	cfg.Overload = over
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

const refusalSubmit = `{"op":"submit","app":"minife","nodes":1,"walltime":1800,"runtime":900,"name":"x"}`

// clientErrorFor reports what Client.Do makes of a reply line, by serving that
// line from a one-shot listener.
func clientErrorFor(t *testing.T, line string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		bufio.NewReader(c).ReadString('\n')
		c.Write([]byte(line + "\n"))
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Do(Request{Op: "now"})
	var busy *BusyError
	var dl *DeadlineError
	var np *NotPrimaryError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &busy):
		return fmt.Sprintf("*BusyError{RetryAfter:%s Shed:%v}", busy.RetryAfter, busy.Shed)
	case errors.As(err, &dl):
		return fmt.Sprintf("*DeadlineError{Msg:%q}", dl.Msg)
	case errors.As(err, &np):
		return fmt.Sprintf("*NotPrimaryError{Role:%s Epoch:%d Msg:%q}", np.Role, np.Epoch, np.Msg)
	}
	return fmt.Sprintf("error(%q)", err.Error())
}

var refusalNowField = regexp.MustCompile(`"now":[^,}]+`)

// TestRefusalBytesGolden holds the reply line of every refusal shape — and
// the client-side error each maps to — against testdata/refusals.golden,
// recorded before overload.go and serve.go became admission.go. Together with
// TestServeByteCompatFeaturesOff and TestServeByteCompatJournalDifferential
// it is what "the wire is unchanged" means.
func TestRefusalBytesGolden(t *testing.T) {
	var got []string
	record := func(name, line string) {
		t.Helper()
		line = refusalNowField.ReplaceAllString(line, `"now":0`)
		got = append(got, name+"\t"+line+"\t"+clientErrorFor(t, line))
	}

	t.Run("conn_cap", func(t *testing.T) {
		for _, c := range []struct {
			name string
			over OverloadConfig
		}{
			{"conn_cap", OverloadConfig{MaxConns: 1}},
			{"conn_cap_configured_hint", OverloadConfig{MaxConns: 1, RetryAfter: 70 * time.Millisecond}},
		} {
			_, addr := refusalServer(t, refusalController(t, c.over), nil)
			first := dialRaw(t, addr)
			first.ask(`{"op":"now"}`)
			record(c.name, dialRaw(t, addr).read()) // sent unasked, then hung up
		}
	})

	t.Run("bucket", func(t *testing.T) {
		clock := &stepClock{t: time.Unix(0, 0)} // frozen: no refill between requests
		_, addr := refusalServer(t, refusalController(t, OverloadConfig{RateLimit: 4, RateBurst: 1}), clock)
		w := dialRaw(t, addr)
		w.ask(`{"op":"now"}`)
		record("busy_bucket_computed_wait", w.ask(`{"op":"now"}`))
	})

	t.Run("inflight", func(t *testing.T) {
		for _, c := range []struct {
			name string
			over OverloadConfig
		}{
			{"busy_inflight_default_hint", OverloadConfig{MaxInflight: 1}},
			{"busy_inflight_configured_hint", OverloadConfig{MaxInflight: 1, RetryAfter: 70 * time.Millisecond}},
		} {
			ctl := refusalController(t, c.over)
			_, addr := refusalServer(t, ctl, nil)
			holder, probe := dialRaw(t, addr), dialRaw(t, addr)
			// The holder's queue takes the one slot and parks on the
			// controller lock; the probe behind it finds the slot taken.
			var line string
			for try := 0; try < 5 && !strings.Contains(line, `"busy":true`); try++ {
				pause := time.Duration(try+1) * 50 * time.Millisecond
				ctl.mu.Lock()
				holder.send(`{"op":"queue"}`)
				time.Sleep(pause)
				probe.send(`{"op":"queue"}`)
				time.Sleep(pause)
				ctl.mu.Unlock()
				line = probe.read()
				holder.read()
			}
			record(c.name, line)
		}
	})

	// shedOver has the priority shedder on; every request a 10 ms step clock
	// serves measures 10 ms against the 1 ms target, so the level climbs one
	// class per 20 ms window of admitted control verbs.
	shedOver := OverloadConfig{RetryAfter: 30 * time.Millisecond, ShedTarget: time.Millisecond, ShedWindow: 20 * time.Millisecond}
	driveUntil := func(t *testing.T, w *rawWire, what string, done func() bool) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if done() {
				return
			}
			if r := w.ask(`{"op":"config"}`); !strings.Contains(r, `"ok":true`) {
				t.Fatalf("control verb refused while driving to %s: %s", what, r)
			}
		}
		t.Fatalf("never reached %s", what)
	}

	t.Run("shed", func(t *testing.T) {
		clock := &stepClock{t: time.Unix(1000, 0), step: 10 * time.Millisecond}
		_, addr := refusalServer(t, refusalController(t, shedOver), clock)
		w := dialRaw(t, addr)
		var line string
		driveUntil(t, w, "a shed query", func() bool {
			line = w.ask(`{"op":"queue"}`)
			return strings.Contains(line, `"shed":true`)
		})
		record("shed_query", line)
		driveUntil(t, w, "a shed submit", func() bool {
			line = w.ask(refusalSubmit)
			return strings.Contains(line, `"shed":true`)
		})
		record("shed_submit", line)
	})

	t.Run("readonly", func(t *testing.T) {
		over := shedOver
		over.BrownoutStep, over.BrownoutCooldown = 40*time.Millisecond, time.Hour
		clock := &stepClock{t: time.Unix(2000, 0), step: 10 * time.Millisecond}
		_, addr := refusalServer(t, refusalController(t, over), clock)
		w := dialRaw(t, addr)
		driveUntil(t, w, "the readonly rung", func() bool {
			return strings.Contains(w.ask(`{"op":"health"}`), `"brownout":"readonly"`)
		})
		// Two seconds of silence decay the shedder to nothing; the ladder's
		// hour of cooldown has barely begun. What refuses the submit now is
		// the rung, and the query served right after proves the shed level is
		// back at zero.
		clock.jump(2 * time.Second)
		record("shed_submit_readonly_rung", w.ask(refusalSubmit))
		if r := w.ask(`{"op":"queue"}`); !strings.Contains(r, `"ok":true`) {
			t.Fatalf("query after the decay was refused, so the shedder (not the rung) may have shed the submit: %s", r)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		clock := &stepClock{t: time.Unix(3000, 0), step: 10 * time.Millisecond}
		_, addr := refusalServer(t, refusalController(t, OverloadConfig{}), clock)
		w := dialRaw(t, addr)
		record("deadline_expired", w.ask(`{"op":"queue","deadline_ms":-5}`))
		w.ask(`{"op":"queue"}`) // teaches the estimator one 10 ms query
		record("deadline_estimate_over_budget", w.ask(`{"op":"queue","deadline_ms":5}`))
	})

	t.Run("deadline_mid_mutation", func(t *testing.T) {
		// An HA primary whose fsync outlasts the budget: admitted, applied,
		// locally durable, and then the replication round trip is skipped.
		b := startNode(t)
		ctl, err := OpenJournaledFS(testControllerConfig(), stallFS{vfs.OS{}, 150 * time.Millisecond}, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctl.Close() })
		_, addr := refusalServer(t, ctl, nil)
		if err := ctl.StartHA(HAOptions{Peer: b.addr, Lease: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := b.ctl.StartHA(HAOptions{Standby: true, Peer: addr, Lease: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
		record("deadline_mid_mutation_ha_primary",
			dialRaw(t, addr).ask(strings.Replace(refusalSubmit, `}`, `,"deadline_ms":60}`, 1)))
	})

	t.Run("degraded", func(t *testing.T) {
		cfg := testControllerConfig()
		cfg.Overload.BreakerThreshold = 1
		cfg.Overload.BreakerCooldown = time.Hour
		ctl, err := OpenJournaled(cfg, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctl.Close() })
		_, addr := refusalServer(t, ctl, nil)
		ctl.mu.Lock()
		ctl.jr.testAppendErr = func(Entry) error { return fmt.Errorf("disk full") }
		ctl.mu.Unlock()
		w := dialRaw(t, addr)
		w.ask(refusalSubmit) // the failed append that trips the breaker
		record("degraded", w.ask(refusalSubmit))
	})

	t.Run("ha_roles", func(t *testing.T) {
		_, b := startPair(t, 5*time.Second)
		record("not_primary", dialRaw(t, b.addr).ask(refusalSubmit))

		// A primary whose peer never answers fences itself after Lease/2.
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		n := startNode(t)
		if err := n.ctl.StartHA(HAOptions{Peer: deadAddr, Lease: 200 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond)
		record("fenced", dialRaw(t, n.addr).ask(refusalSubmit))
	})

	t.Run("draining", func(t *testing.T) {
		// Shutdown keeps only connections that are mid-request when it
		// begins, so two requests are parked on the server clock: w's,
		// released first, and another that holds the shutdown open while w
		// asks again.
		srv := NewServer(refusalController(t, OverloadConfig{}))
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
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		park := func(w *rawWire) (release func()) {
			g := make(chan struct{})
			gates <- g
			w.send(`{"op":"now"}`)
			<-parked
			return func() { close(g); w.read() }
		}
		w, other := dialRaw(t, addr), dialRaw(t, addr)
		releaseOther, releaseW := park(other), park(w)
		shut := make(chan struct{})
		go func() { srv.Shutdown(5 * time.Second); close(shut) }()
		for !srv.lp.Draining() {
			time.Sleep(time.Millisecond)
		}
		releaseW()
		record("draining", w.ask(`{"op":"now"}`))
		releaseOther()
		<-shut
	})

	t.Run("not_admission", func(t *testing.T) {
		_, addr := refusalServer(t, refusalController(t, OverloadConfig{}), nil)
		w := dialRaw(t, addr)
		record("malformed_line", w.ask(`{"op":`))
		record("unknown_op", w.ask(`{"op":"frobnicate"}`))
	})

	if t.Failed() {
		return
	}
	golden.Check(t, filepath.Join("testdata", "refusals.golden"), []byte(strings.Join(got, "\n")+"\n"), *updateRefusals)
}
