// Package lineproto is the repo's one wire: JSON lines over TCP, one request
// line from the client, one reply line back, every line bounded. It hides the
// framing, the deadlines and the accept / drain / shutdown / close state
// machine (DESIGN §8); request decoding, verbs, admission and retries stay
// with the owners, because sharing them would make this code branch on its
// caller.
package lineproto

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// MaxLine bounds one line, newline included. A server never buffers
	// more than this for a request and never writes a longer reply; a Conn
	// never buffers more for a reply.
	MaxLine = 1 << 20
	// DefaultReadTimeout is how long a connection may sit idle (or dribble
	// one request) before the server drops it.
	DefaultReadTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds writing one reply.
	DefaultWriteTimeout = 30 * time.Second
)

// Handler answers one request line (valid only during the call) with the
// value to encode as the reply, and whether to hang up after it. It is called
// from its connection's goroutine only.
type Handler func(line []byte) (reply any, hangup bool)

// Server accepts connections and runs one Handler per connection. Set the
// exported fields before Listen.
type Server struct {
	// Open returns the handler for a newly accepted connection; id is unique
	// per server. Closed, when set, is called after that connection's last
	// line.
	Open   func(id int64) Handler
	Closed func(id int64)
	// ErrorReply shapes a framing error in the owner's reply type: a request
	// line longer than MaxLine (reply is nil; the connection then hangs up),
	// or a reply that encodes longer than MaxLine (reply is that value; the
	// error is sent in its place and the connection stays).
	ErrorReply func(msg string, reply any) any

	ReadTimeout  time.Duration // default DefaultReadTimeout
	WriteTimeout time.Duration // default DefaultWriteTimeout

	// MaxConns, when positive, caps concurrent connections; one over the
	// cap is sent Refuse() and closed.
	MaxConns int
	Refuse   func() any

	maxLine  int // MaxLine; only the tests shrink it
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	lastID   int64
	draining bool
	closed   bool
	// inflight counts lines inside a Handler or having their reply written;
	// wg counts the accept loop and every connection goroutine.
	inflight sync.WaitGroup
	wg       sync.WaitGroup
}

// Listen starts serving on addr (":0" picks a free port) in the background
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if s.maxLine <= 0 {
		s.maxLine = MaxLine
	}
	if s.ReadTimeout <= 0 {
		s.ReadTimeout = DefaultReadTimeout
	}
	if s.WriteTimeout <= 0 {
		s.WriteTimeout = DefaultWriteTimeout
	}
	s.mu.Lock()
	s.ln = ln
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			c.Close()
			return
		}
		over := s.MaxConns > 0 && len(s.conns) >= s.MaxConns
		if !over {
			s.conns[c] = struct{}{}
			// Armed with the table insert, so Shutdown's wake-up cannot be
			// overwritten by a connection that has not started reading.
			c.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		s.lastID++
		id := s.lastID
		s.wg.Add(1)
		s.mu.Unlock()
		// Off the accept loop even to refuse: a peer that never reads must
		// not stall the admission of others.
		go func() {
			defer s.wg.Done()
			if over {
				s.write(c, s.Refuse())
				c.Close()
				return
			}
			s.serve(c, id)
		}()
	}
}

func (s *Server) serve(c net.Conn, id int64) {
	handle := s.Open(id)
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		if s.Closed != nil {
			s.Closed(id)
		}
	}()
	sc := newScanner(c, s.maxLine)
	for {
		if !sc.Scan() {
			// An over-long line is a client bug worth reporting before
			// hanging up; EOF, timeout and shutdown just close.
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				s.write(c, s.ErrorReply(fmt.Sprintf("request exceeds %d bytes", s.maxLine), nil))
			}
			return
		}
		// A line that arrives while draining still gets its answer (the
		// owner's refusal, or a health report) but Shutdown does not wait
		// for it, and the connection ends with it.
		s.mu.Lock()
		tracked := !s.draining
		if tracked {
			s.inflight.Add(1)
		}
		s.mu.Unlock()
		reply, hangup := handle(sc.Bytes())
		ok := s.write(c, reply)
		if tracked {
			s.inflight.Done()
		}
		if !ok || hangup || !tracked {
			return
		}
		c.SetReadDeadline(time.Now().Add(s.ReadTimeout))
	}
}

// write sends one reply line. One longer than MaxLine never reaches the wire
// (the peer's scanner would refuse it, then parse its tail as the next
// reply); an error reply goes in its place.
func (s *Server) write(c net.Conn, reply any) bool {
	line, err := json.Marshal(reply)
	if err == nil && len(line) >= s.maxLine {
		msg := fmt.Sprintf("reply exceeds %d bytes", s.maxLine)
		line, err = json.Marshal(s.ErrorReply(msg, reply))
	}
	if err != nil {
		return false
	}
	c.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	_, err = c.Write(append(line, '\n'))
	return err == nil
}

// Conns reports the number of connections being served.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Draining reports whether Shutdown has begun; handlers consult it to refuse
// new work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops the server gracefully: it stops accepting and starts
// draining (every line read from now on is answered, then its connection
// closed), wakes idle connections so they close, waits up to timeout for lines
// already being handled to finish and their replies to be written, severs
// what is left, then waits for the accept loop and every connection goroutine
// to exit, so nothing is leaked. Shutdown(0) is Close plus that wait.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns { // those mid-line are past their Scan, unaffected
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	// Past the timeout Close severs the connections, but a handler still
	// running is waited for either way: its goroutine is in wg.
	t := time.AfterFunc(timeout, s.Close)
	s.inflight.Wait()
	t.Stop()
	s.Close()
	s.wg.Wait()
}

// Close stops the listener and severs every connection at once, abandoning
// lines in flight and not waiting for goroutines. Safe to call repeatedly.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

func newScanner(r io.Reader, maxLine int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(maxLine, 64<<10)), maxLine)
	return sc
}

// Conn is the client end of one connection: the socket, its bounded reply
// scanner and its encoder as one value. Close fails a Call in progress.
type Conn struct {
	net.Conn
	sc     *bufio.Scanner
	enc    *json.Encoder
	broken atomic.Bool
}

// Dial connects to addr. A positive timeout bounds the dial.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &Conn{Conn: c, sc: newScanner(c, MaxLine), enc: json.NewEncoder(c)}, nil
}

// CallRaw sends req as one line and returns the one-line reply, valid until
// the next call; a positive timeout bounds the round trip. Any failure closes
// the connection and marks it Broken: half a request may be on the wire or a
// reply unread, and the next reply parsed from this socket could be the tail
// of this one.
func (c *Conn) CallRaw(req any, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		c.SetDeadline(time.Now().Add(timeout))
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, c.fail(fmt.Errorf("send: %w", err))
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, c.fail(fmt.Errorf("receive: %w", err))
		}
		return nil, c.fail(io.ErrUnexpectedEOF)
	}
	return c.sc.Bytes(), nil
}

// Call is CallRaw with the reply decoded into resp; a reply that does not
// decode breaks the connection too.
func (c *Conn) Call(req, resp any, timeout time.Duration) error {
	line, err := c.CallRaw(req, timeout)
	if err == nil {
		if err = json.Unmarshal(line, resp); err != nil {
			err = c.fail(fmt.Errorf("decode: %w", err))
		}
	}
	return err
}

func (c *Conn) fail(err error) error {
	c.broken.Store(true)
	c.Close()
	return err
}

// Broken reports whether a Call has failed; the owner dials a new Conn
// rather than reuse this one.
func (c *Conn) Broken() bool { return c.broken.Load() }

// Call is the one-shot round trip: dial, Call, hang up. A positive timeout
// bounds the dial and the round trip each.
func Call(addr string, timeout time.Duration, req, resp any) error {
	c, err := Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Call(req, resp, timeout)
}
