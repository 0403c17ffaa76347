package lineproto

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The framing and hardening suite for the one wire. Every case ends with a
// goroutine-leak check: whatever it started must be gone once the server has
// been shut down.

type msg struct {
	Op  string `json:"op,omitempty"`
	V   string `json:"v,omitempty"`
	N   int    `json:"n,omitempty"`
	Err string `json:"err,omitempty"`
}

// testServer answers echo (V back), big (N bytes of V), block and hold (park
// until release / release2 is closed, then echo) and bye (echo, then hang up);
// while draining it refuses everything.
type testServer struct {
	Server
	addr              string
	entered           chan struct{} // one token per parked handler
	release, release2 chan struct{}
	once, once2       sync.Once
	mu                sync.Mutex
	closed            []int64
}

// free and free2 let the handlers parked in block and hold go.
func (ts *testServer) free()  { ts.once.Do(func() { close(ts.release) }) }
func (ts *testServer) free2() { ts.once2.Do(func() { close(ts.release2) }) }

func startServer(t *testing.T, tune func(*Server)) *testServer {
	t.Helper()
	leakCheck(t)
	ts := &testServer{entered: make(chan struct{}, 16), release: make(chan struct{}), release2: make(chan struct{})}
	ts.ErrorReply = func(m string, _ any) any { return msg{Err: m} }
	ts.Open = func(int64) Handler { return ts.line }
	ts.Closed = func(id int64) {
		ts.mu.Lock()
		ts.closed = append(ts.closed, id)
		ts.mu.Unlock()
	}
	if tune != nil {
		tune(&ts.Server)
	}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts.addr = addr
	t.Cleanup(func() {
		ts.free() // a failed test must not leave Shutdown waiting on a parked handler
		ts.free2()
		ts.Shutdown(0)
	})
	return ts
}

func (ts *testServer) line(raw []byte) (any, bool) {
	if len(raw) >= ts.maxLine {
		panic("handler given a line at or past MaxLine")
	}
	var m msg
	if err := json.Unmarshal(raw, &m); err != nil {
		return msg{Err: "bad request"}, false
	}
	if ts.Draining() {
		return msg{Err: "draining"}, true
	}
	switch m.Op {
	case "big":
		return msg{V: strings.Repeat("x", m.N)}, false
	case "block":
		ts.entered <- struct{}{}
		<-ts.release
	case "hold":
		ts.entered <- struct{}{}
		<-ts.release2
	case "bye":
		return msg{V: m.V}, true
	}
	return msg{V: m.V}, false
}

// leakCheck fails the test if, after every other cleanup has run, more
// goroutines are alive than when it was called.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func dial(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func call(t *testing.T, c *Conn, req msg) msg {
	t.Helper()
	var resp msg
	if err := c.Call(req, &resp, 5*time.Second); err != nil {
		t.Fatalf("call %+v: %v", req, err)
	}
	return resp
}

// expectClosed reads until the peer hangs up, failing on a timeout.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
}

func TestRoundTripsAndHangup(t *testing.T) {
	ts := startServer(t, nil)
	c := dial(t, ts.addr)
	for _, v := range []string{"a", "b", "<&>"} {
		if got := call(t, c, msg{Op: "echo", V: v}); got.V != v {
			t.Fatalf("echo %q = %+v", v, got)
		}
	}
	if got := call(t, c, msg{Op: "bye", V: "z"}); got.V != "z" {
		t.Fatalf("bye = %+v", got)
	}
	expectClosed(t, c.Conn)
	// The closed hook ran once, for this connection's id.
	ts.Shutdown(0)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.closed) != 1 || ts.closed[0] != 1 {
		t.Fatalf("closed hook calls = %v, want [1]", ts.closed)
	}
}

// Half a line then silence: the connection is dropped at the read deadline.
// What had arrived is handled as the connection's last line (bufio.Scanner
// hands over an unterminated tail when its reader fails, as it does at EOF),
// so a fragment draws the handler's malformed-request answer on the way out.
func TestHalfLineDroppedAtReadDeadline(t *testing.T) {
	ts := startServer(t, func(s *Server) { s.ReadTimeout = 50 * time.Millisecond })
	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(`{"op":"echo","v":"never finis`)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	rest, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("connection not dropped: %v", err)
	}
	if want := `{"err":"bad request"}` + "\n"; string(rest) != want {
		t.Fatalf("before the drop the server wrote %q, want %q", rest, want)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("dropped after %v, read deadline was 50ms", took)
	}
}

// An over-long request line draws the owner-shaped error, then a hang-up; the
// handler never sees it (testServer.line panics on a line at MaxLine).
func TestOverlongRequest(t *testing.T) {
	ts := startServer(t, func(s *Server) { s.maxLine = 256 })
	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(strings.Repeat("x", 256))); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply before close: %v", err)
	}
	if want := `{"err":"request exceeds 256 bytes"}` + "\n"; line != want {
		t.Fatalf("reply = %q, want %q", line, want)
	}
	expectClosed(t, c)
}

// A line of exactly MaxLine bytes, newline included, is the longest accepted;
// the same bound applies to replies, and an over-long reply is replaced by an
// error while the connection stays usable.
func TestLineBoundIsInclusiveBothWays(t *testing.T) {
	ts := startServer(t, func(s *Server) { s.maxLine = 256 })
	c := dial(t, ts.addr)
	fit := msg{Op: "echo", V: strings.Repeat("v", 256-len(`{"op":"echo","v":""}`)-1)}
	if b, _ := json.Marshal(fit); len(b)+1 != 256 {
		t.Fatalf("test bug: request is %d bytes with newline", len(b)+1)
	}
	if got := call(t, c, fit); got.V != fit.V {
		t.Fatal("a request of exactly MaxLine bytes was not served")
	}
	replyFits := 256 - len(`{"v":""}`) - 1
	if got := call(t, c, msg{Op: "big", N: replyFits}); len(got.V) != replyFits {
		t.Fatalf("a reply of exactly MaxLine bytes came back as %+v", got)
	}
	if got := call(t, c, msg{Op: "big", N: replyFits + 1}); got.Err != "reply exceeds 256 bytes" {
		t.Fatalf("over-long reply = %+v", got)
	}
	if got := call(t, c, msg{Op: "echo", V: "still here"}); got.V != "still here" {
		t.Fatalf("connection unusable after an over-long reply: %+v", got)
	}
}

// Over the cap: the owner's refusal, then a hang-up — and a refused peer that
// never reads does not hold up the accept loop.
func TestConnectionCap(t *testing.T) {
	ts := startServer(t, func(s *Server) {
		s.MaxConns = 1
		s.Refuse = func() any { return msg{Err: "full"} }
	})
	c1 := dial(t, ts.addr)
	call(t, c1, msg{Op: "echo", V: "1"})

	deaf, err := net.Dial("tcp", ts.addr) // refused, never reads
	if err != nil {
		t.Fatal(err)
	}
	defer deaf.Close()

	c2, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(c2).ReadString('\n')
	if err != nil || line != `{"err":"full"}`+"\n" {
		t.Fatalf("refusal = %q, %v", line, err)
	}
	expectClosed(t, c2)

	// A freed slot is reusable.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for ts.Conns() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection never left the table")
		}
		time.Sleep(time.Millisecond)
	}
	call(t, dial(t, ts.addr), msg{Op: "echo", V: "3"})
}

// Shutdown with a handler blocked: that reply is still written, a new line on
// another connection is refused and hung up on, an idle connection is woken
// and closed, new dials fail, and Shutdown returns leaving nothing running.
func TestShutdownDrains(t *testing.T) {
	ts := startServer(t, nil)
	busy, late, idle := dial(t, ts.addr), dial(t, ts.addr), dial(t, ts.addr)

	parked := func(c *Conn, req msg) chan msg {
		done := make(chan msg, 1)
		go func() {
			var resp msg
			if err := c.Call(req, &resp, 10*time.Second); err != nil {
				resp.Err = err.Error()
			}
			done <- resp
		}()
		<-ts.entered
		return done
	}
	busyDone := parked(busy, msg{Op: "block", V: "held"})
	// late is mid-line too when the drain begins, so its reader is not woken
	// and it gets to send one more line afterwards.
	lateDone := parked(late, msg{Op: "hold", V: "late"})

	for ts.Conns() != 3 { // idle has dialed; wait until it is accepted too
		time.Sleep(time.Millisecond)
	}

	shut := make(chan struct{})
	go func() {
		ts.Shutdown(5 * time.Second)
		close(shut)
	}()
	expectClosed(t, idle.Conn) // woken, not left to its five-minute deadline
	if _, err := Dial(ts.addr, time.Second); err == nil {
		t.Fatal("dial succeeded while draining")
	}

	ts.free2()
	if got := <-lateDone; got.V != "late" {
		t.Fatalf("in-flight reply = %+v, want it written", got)
	}
	if got := call(t, late, msg{Op: "echo", V: "new work"}); got.Err != "draining" {
		t.Fatalf("new line during shutdown = %+v, want the owner's refusal", got)
	}
	expectClosed(t, late.Conn)
	select {
	case <-shut:
		t.Fatal("Shutdown returned while a handler was blocked")
	case <-time.After(20 * time.Millisecond):
	}

	ts.free()
	if got := <-busyDone; got.V != "held" {
		t.Fatalf("in-flight reply = %+v, want it written", got)
	}
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

// Shutdown's timeout bounds how long connections are kept for in-flight
// lines: past it they are severed, and Shutdown returns once the handler does.
func TestShutdownTimeoutSevers(t *testing.T) {
	ts := startServer(t, nil)
	c := dial(t, ts.addr)
	errc := make(chan error, 1)
	go func() {
		var resp msg
		errc <- c.Call(msg{Op: "block"}, &resp, 10*time.Second)
	}()
	<-ts.entered
	shut := make(chan struct{})
	go func() {
		ts.Shutdown(20 * time.Millisecond)
		close(shut)
	}()
	if err := <-errc; err == nil {
		t.Fatal("call survived a shutdown timeout")
	}
	ts.free()
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the handler did")
	}
}

// Close mid-call severs the connection under the caller at once.
func TestCloseSeversMidCall(t *testing.T) {
	ts := startServer(t, nil)
	c := dial(t, ts.addr)
	errc := make(chan error, 1)
	go func() {
		var resp msg
		errc <- c.Call(msg{Op: "block"}, &resp, 10*time.Second)
	}()
	<-ts.entered
	ts.Close()
	ts.Close() // idempotent
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("call succeeded across Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not sever the in-flight call")
	}
	if _, err := Dial(ts.addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	ts.free()
}

// A Conn whose Call failed is closed and says so; one closed by its owner
// fails its next Call (and only then reports Broken).
func TestFailedCallBreaksConn(t *testing.T) {
	ts := startServer(t, nil)
	c := dial(t, ts.addr)
	if c.Broken() {
		t.Fatal("fresh Conn reports broken")
	}
	// A reply that does not decode into the caller's type.
	var wrong struct{ V int }
	if err := c.Call(msg{Op: "echo", V: "text"}, &wrong, time.Second); err == nil {
		t.Fatal("mistyped reply decoded")
	}
	if !c.Broken() {
		t.Fatal("Conn not broken after a failed Call")
	}
	var resp msg
	if err := c.Call(msg{Op: "echo"}, &resp, time.Second); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Call on a broken Conn = %v, want a closed-socket error", err)
	}

	// A timeout mid-reply is the desynchronising case: the reply arrives
	// after the caller gave up, and must never be read as the next one.
	c2 := dial(t, ts.addr)
	err := c2.Call(msg{Op: "block", V: "stale"}, &resp, 30*time.Millisecond)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("blocked call = %v, want a timeout", err)
	}
	<-ts.entered
	ts.free()
	if !c2.Broken() {
		t.Fatal("Conn reusable after a timed-out Call")
	}

	c3 := dial(t, ts.addr)
	c3.Close()
	if c3.Broken() {
		t.Fatal("Close alone marked the Conn broken")
	}
	if err := c3.Call(msg{Op: "echo"}, &resp, time.Second); err == nil || !c3.Broken() {
		t.Fatalf("Call after Close = %v, broken=%v", err, c3.Broken())
	}
}

// The one-shot Call gives up at its timeout against a listener that accepts
// and then says nothing, and reports a refused dial as such.
func TestOneShotCall(t *testing.T) {
	ts := startServer(t, nil)
	var resp msg
	if err := Call(ts.addr, time.Second, msg{Op: "echo", V: "once"}, &resp); err != nil || resp.V != "once" {
		t.Fatalf("one-shot = %+v, %v", resp, err)
	}

	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close() // accepts into the backlog, never reads or replies
	start := time.Now()
	err = Call(hole.Addr().String(), 50*time.Millisecond, msg{Op: "echo"}, &resp)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("black-holed call = %v, want a timeout", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("black-holed call took %v with a 50ms timeout", took)
	}

	dead := hole.Addr().String()
	hole.Close()
	if err := Call(dead, time.Second, msg{Op: "echo"}, &resp); err == nil || !strings.Contains(err.Error(), "dial "+dead) {
		t.Fatalf("refused dial = %v", err)
	}
}

// Arbitrary bytes on the socket never panic the server, never reach a handler
// as a line at or past MaxLine (testServer.line panics on one), never draw a
// reply longer than MaxLine, and leave the server serving.
func FuzzServerLine(f *testing.F) {
	f.Add([]byte(`{"op":"echo","v":"hi"}` + "\n"))
	f.Add([]byte(`{"op":"big","n":500}` + "\n" + `{"op":"echo"}` + "\n"))
	f.Add([]byte(strings.Repeat("x", 300) + "\n"))
	f.Add([]byte("\n\n\x00\xff{\n"))
	f.Add([]byte(`{"op":"bye"}` + "\n" + `{"op":"echo"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := startServer(t, func(s *Server) {
			s.maxLine = 128
			s.ReadTimeout = 100 * time.Millisecond
		})
		c, err := net.Dial("tcp", ts.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			c.Write(data)
			c.(*net.TCPConn).CloseWrite()
		}()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(c)
		for {
			line, err := r.ReadString('\n')
			if len(line) > 128 {
				t.Fatalf("reply line of %d bytes past MaxLine 128", len(line))
			}
			if err != nil {
				break
			}
			var m msg
			if json.Unmarshal([]byte(line), &m) != nil {
				t.Fatalf("reply is not one JSON object: %q", line)
			}
		}
		var resp msg
		if err := Call(ts.addr, 5*time.Second, msg{Op: "echo", V: "ok"}, &resp); err != nil || resp.V != "ok" {
			t.Fatalf("server not serving after fuzz input: %+v, %v", resp, err)
		}
	})
}
