package slurm

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/lineproto"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// The wire protocol is JSON lines over TCP: one Request per line from the
// client, one Response per line from the server. It is deliberately simple —
// the goal is the operational shape of a workload manager (remote
// submission, queue introspection, separate tooling processes), not RPC
// sophistication. Framing, deadlines and the accept/shutdown state machine
// are internal/lineproto's; this file is the verbs and the admission.

// Request is one client command.
type Request struct {
	// Op selects the operation: one of the keys of the verb table (verbs.go).
	Op string `json:"op"`
	// Submit arguments.
	App      string  `json:"app,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Walltime float64 `json:"walltime,omitempty"`
	Runtime  float64 `json:"runtime,omitempty"`
	Name     string  `json:"name,omitempty"`
	// Cancel argument.
	ID int64 `json:"id,omitempty"`
	// Advance argument.
	Seconds float64 `json:"seconds,omitempty"`
	// Node argument for drain_node / resume_node.
	Node int `json:"node,omitempty"`
	// After lists dependency job IDs for submit.
	After []int64 `json:"after,omitempty"`
	// Queue argument: include finished jobs.
	History bool `json:"history,omitempty"`
	// Token is the client-supplied idempotency token for submit: the
	// controller journals it and dedupes repeats, so a retried submit
	// whose first response was lost never double-enqueues.
	Token string `json:"token,omitempty"`
	// Limit and Offset paginate queue replies (0 limit = server default).
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
	// Replication arguments (the replicate verb, primary → standby; see
	// ha.go). Epoch fences the stream; Full marks a complete log transfer.
	// All omitempty, so non-HA traffic is byte-identical to prior releases.
	Epoch   int64   `json:"epoch,omitempty"`
	Entries []Entry `json:"entries,omitempty"`
	Full    bool    `json:"full,omitempty"`
	// DeadlineMS is the request's remaining deadline budget in milliseconds,
	// relative so client and server clocks need not agree (see admission.go).
	// The server refuses work it cannot finish within the budget before
	// doing any of it. Absent (0) = no deadline, byte-identical behavior to
	// pre-deadline releases.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Response is one server reply.
type Response struct {
	OK    bool    `json:"ok"`
	Error string  `json:"error,omitempty"`
	Now   float64 `json:"now"`
	// Operation-specific payloads.
	ID      int64           `json:"id,omitempty"`
	Jobs    []JobInfo       `json:"jobs,omitempty"`
	Nodes   []NodeInfo      `json:"nodes,omitempty"`
	Stats   *metrics.Result `json:"stats,omitempty"`
	Cluster string          `json:"cluster,omitempty"`
	Policy  string          `json:"policy,omitempty"`
	// Health is the health-verb payload: ok | degraded | draining | fenced.
	Health string `json:"health,omitempty"`
	// Busy marks a refused, retryable request; RetryAfterMS hints when.
	Busy         bool  `json:"busy,omitempty"`
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Total is the pre-pagination row count of a paginated queue reply.
	Total int `json:"total,omitempty"`
	// HA payloads: Role/Epoch accompany health replies and not-primary /
	// fenced errors (so clients fail over); Seq and NeedFull are the
	// replicate verb's acknowledgement. All absent while HA is off.
	Role     string `json:"role,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`
	Seq      int64  `json:"seq,omitempty"`
	NeedFull bool   `json:"need_full,omitempty"`
	// Refusal and degradation payloads (see admission.go); all absent unless
	// the request carried a deadline or the server has the shed/brownout
	// stages on, keeping legacy traffic byte-identical. Shed marks a priority
	// shed (Busy is set too, so old clients retry it like a volume shed);
	// DeadlineExceeded marks a request refused — or abandoned mid-mutation —
	// because its budget ran out; Brownout is the ladder state on health
	// replies; Serve carries the degradation counters on health replies.
	Shed             bool           `json:"shed,omitempty"`
	DeadlineExceeded bool           `json:"deadline_exceeded,omitempty"`
	Brownout         string         `json:"brownout,omitempty"`
	Serve            *ServeCounters `json:"serve,omitempty"`
}

// Protocol hardening limits (enforced by internal/lineproto): a client that
// stops sending mid-line, never reads its responses, or sends an unbounded
// line must not wedge the server or eat its memory.
const (
	// MaxLine bounds one request or response line.
	MaxLine = lineproto.MaxLine
	// DefaultReadTimeout is how long a connection may sit idle (or dribble
	// one request) before the server drops it.
	DefaultReadTimeout = lineproto.DefaultReadTimeout
	// DefaultWriteTimeout bounds writing one response.
	DefaultWriteTimeout = lineproto.DefaultWriteTimeout
)

// Server serves the protocol for one controller.
type Server struct {
	ctl *Controller

	// ReadTimeout and WriteTimeout override the per-request deadlines
	// (zero selects the defaults). Set before Listen.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// now is the server's clock, injectable (before Listen) for
	// deterministic bucket and hysteresis tests.
	now func() time.Time
	// adm is the admission pipeline (admission.go) every request line but
	// `health` passes, configured by the controller Config's Overload
	// section.
	adm *admission

	// lp owns the listener, the connections and the drain/shutdown state.
	lp lineproto.Server
}

// NewServer wraps a controller. Admission follows the controller
// configuration's Overload section; the zero OverloadConfig disables it.
func NewServer(ctl *Controller) *Server {
	s := &Server{ctl: ctl, now: time.Now}
	s.adm = newAdmission(ctl.Config().Overload, func() time.Time { return s.now() }, ctl.noteBrownout)
	return s
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. Serving happens on background goroutines until
// Close.
func (s *Server) Listen(addr string) (string, error) {
	over := s.adm.over
	s.lp.ReadTimeout, s.lp.WriteTimeout = s.ReadTimeout, s.WriteTimeout
	s.lp.MaxConns = over.MaxConns
	s.lp.Refuse = func() any {
		// Over the connection cap: tell the client once, then hang up.
		return s.stamp(s.adm.refuse(refusal{kind: cntBusy}))
	}
	s.lp.ErrorReply = func(msg string, reply any) any {
		if r, ok := reply.(Response); ok && r.Jobs != nil {
			msg += "; page the queue with the limit and offset request fields"
		}
		return s.stamp(Response{Error: msg})
	}
	s.lp.Open = func(int64) lineproto.Handler {
		var bucket *tokenBucket // per connection
		if over.RateLimit > 0 {
			bucket = newTokenBucket(over.RateLimit, over.RateBurst, s.now())
		}
		return func(raw []byte) (any, bool) {
			resp, hangup := s.serveLine(raw, bucket)
			return s.stamp(resp), hangup
		}
	}
	bound, err := s.lp.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("slurm: listen: %w", err)
	}
	return bound, nil
}

// stamp puts the controller clock on a reply about to be written. The clock
// is read from the controller's published copy, not under its lock: a refusal
// must not queue behind the writer whose fsync caused it.
func (s *Server) stamp(resp Response) Response {
	resp.Now = float64(s.ctl.Now())
	return resp
}

// serveLine answers one request line: the reply, and whether to hang up. It
// is the only path from a line to the controller: admit, then handleB.
func (s *Server) serveLine(raw []byte, bucket *tokenBucket) (Response, bool) {
	var req Request
	parseErr := json.Unmarshal(raw, &req)
	draining := s.lp.Draining()

	// health bypasses admission entirely: a liveness probe must answer
	// while everything else is being refused, and still answers (reporting
	// "draining") during shutdown.
	if parseErr == nil && req.Op == "health" {
		h := s.ctl.Health()
		if draining {
			h = HealthDraining
		}
		return s.healthResponse(h), draining
	}
	// Never start new work on a draining server.
	if draining {
		return Response{Error: "server shutting down"}, true
	}
	if parseErr != nil {
		// Malformed lines are charged like bulk requests so a
		// garbage-spraying client cannot dodge the limiter.
		if bucket != nil {
			bucket.take(1, s.now())
		}
		return Response{Error: fmt.Sprintf("bad request: %v", parseErr)}, false
	}
	t, refused := s.adm.admit(req, bucket)
	if refused != nil {
		return s.adm.refuse(*refused), false
	}
	defer t.done()
	return s.handleB(req, t), false
}

// healthResponse builds a health reply, attaching role and epoch only when
// HA is on — and brownout state plus degradation counters only when the
// shed or brownout stages are on — so legacy responses stay byte-identical
// to prior releases. Health probes also feed the ladder a pressure sample:
// they bypass admission, so after load stops they are what walks the ladder
// back down to NORMAL.
func (s *Server) healthResponse(h string) Response {
	resp := Response{OK: true, Health: h}
	if on, role, epoch := s.ctl.HAInfo(); on {
		resp.Role, resp.Epoch = role, epoch
	}
	if s.adm.ladder.up > 0 {
		resp.Brownout = brownoutName(s.adm.brownout(s.now()))
	}
	if s.adm.load.target > 0 || s.adm.ladder.up > 0 {
		resp.Serve = s.adm.counters()
	}
	return resp
}

// opErr converts a mutation error into a Response. ErrNotPrimary and
// ErrFenced additionally carry the node's role and epoch, which is how a
// multi-endpoint client learns it should fail over.
func (s *Server) opErr(err error) Response {
	if errors.Is(err, ErrDeadlineExceeded) {
		// The budget ran out mid-mutation (typically: locally durable,
		// synchronous replication skipped; the heartbeat loop delivers it).
		return s.adm.refuse(refusal{kind: cntDeadline, detail: err.Error()})
	}
	resp := Response{Error: err.Error()}
	if errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrFenced) {
		resp.Role, resp.Epoch = s.ctl.RoleEpoch()
	}
	return resp
}

// handleB dispatches one admitted request: a mutating verb becomes its
// journal Entry (verbs.go) and goes through Controller.mutate with the
// ticket's deadline budget; reads are served at the ticket's brownout level.
func (s *Server) handleB(req Request, t ticket) Response {
	if v := verbs[req.Op]; v.entry != nil {
		e := v.entry(req)
		if err := s.ctl.mutate(t.budget, &e); err != nil {
			return s.opErr(err)
		}
		return Response{OK: true, ID: e.ID}
	}
	resp := Response{OK: true}
	switch req.Op {
	case "replicate":
		return s.ctl.HandleReplicate(req)
	case "queue":
		slot := &s.adm.queueLive
		if req.History {
			slot = &s.adm.queueAll
		}
		v := brownoutRead(t, slot, func() queueView { return s.ctl.queueView(req.History) })
		resp = page(v, req, s.adm.over, t.level)
	case "nodes":
		resp.Nodes = brownoutRead(t, &s.adm.nodes, s.ctl.Nodes)
	case "stats":
		st := brownoutRead(t, &s.adm.stats, s.ctl.Stats)
		resp.Stats = &st
	case "now": // the payload is Response.Now, stamped on every reply
	case "config":
		cfg := s.ctl.Config()
		resp.Cluster, resp.Policy = cfg.ClusterName, cfg.Policy
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	return resp
}

// window is the row range [lo, hi) one queue reply of total rows carries,
// and whether it is a page (the reply then reports Total). Without explicit
// Limit/Offset and with no configured HistoryLimit the reply is every row and
// no page, keeping legacy responses byte-identical. At BrownoutPaged and
// above the brownout history cap clamps even explicit limits: a browned-out
// controller stops letting bulk sacct scans compete with live traffic.
func window(total int, req Request, over OverloadConfig, level int) (lo, hi int, paged bool) {
	limit := req.Limit
	explicit := req.Limit > 0 || req.Offset > 0
	if limit <= 0 && req.History {
		limit = over.HistoryLimit
	}
	if level >= BrownoutPaged && req.History {
		if bound := cmp.Or(over.BrownoutHistoryLimit, DefaultBrownoutHistoryLimit); limit <= 0 || limit > bound {
			limit = bound
			explicit = true // the clamp applies even to default-shaped requests
		}
	}
	if !explicit && (limit <= 0 || total <= limit) {
		return 0, total, false
	}
	lo, hi = min(max(req.Offset, 0), total), total
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	return lo, hi, true
}

// page is one queue reply: the rows of v inside the request's window, so a
// page costs its rows, not the history behind them.
func page(v queueView, req Request, over OverloadConfig, level int) Response {
	total := len(v.live) + len(v.done)
	lo, hi, paged := window(total, req, over, level)
	resp := Response{OK: true, Jobs: v.rows(lo, hi)}
	if paged {
		resp.Total = total
	}
	return resp
}

// Close stops the listener and open connections immediately. In-flight
// requests are abandoned; use Shutdown for a graceful stop.
func (s *Server) Close() { s.lp.Close() }

// Shutdown stops the server gracefully: no new requests are accepted,
// requests already being processed complete and their responses are written,
// idle connections are dropped. It waits up to timeout for the in-flight
// work, closes everything, then waits for the accept loop and every
// connection goroutine to exit — after Shutdown returns, the server has
// leaked nothing.
func (s *Server) Shutdown(timeout time.Duration) { s.lp.Shutdown(timeout) }

// Client is a protocol client (the sbatch/squeue/sinfo tooling). It may hold
// an ordered list of endpoints (an HA pair): dialing picks the first healthy
// one, and with a Retry policy set, transport failures and not-primary
// errors rotate to the next endpoint before retrying — transparent failover.
type Client struct {
	conn  *lineproto.Conn
	addrs []string
	cur   int // index into addrs of the endpoint conn points at

	// Retry, when set, makes Do resilient: BUSY responses are retried
	// after a jittered backoff that honors the server's retry-after hint,
	// transport failures on idempotent requests (reads, or submits
	// carrying a Token) redial and retry, and not-primary/fenced errors
	// fail over to the next endpoint. Nil keeps the one-shot behavior.
	Retry *retry.Policy

	// Timeout, when positive, bounds each request round trip with a
	// connection deadline. Without it a black-holed (partitioned, not
	// refused) endpoint stalls Do until the server's own idle timeout.
	Timeout time.Duration

	// DeadlineBudget, when positive, stamps every request that does not
	// already carry one with a relative deadline (Request.DeadlineMS). The
	// budget spans the whole Do call including retries: each attempt carries
	// only what remains, and Do gives up with a DeadlineError once it is
	// spent — the client-side half of deadline propagation.
	DeadlineBudget time.Duration

	// Hedge, when set, enables hedged requests for idempotent read verbs:
	// if the primary endpoint has not answered within Hedge.Delay, a second
	// attempt races it on a fresh connection and the loser is cancelled
	// (see hedge.go).
	Hedge *HedgePolicy
}

// BusyError is returned by Client.Do when the server refuses the request for
// load. The embedded hint tells the caller when a retry is worth attempting.
// Shed distinguishes a priority shed (the server chose to drop this verb
// class under overload) from a plain volume refusal; both are retryable.
type BusyError struct {
	RetryAfter time.Duration
	Shed       bool
}

func (e *BusyError) Error() string {
	if e.Shed {
		return fmt.Sprintf("slurm: request shed under overload, retry after %s", e.RetryAfter)
	}
	return fmt.Sprintf("slurm: server busy, retry after %s", e.RetryAfter)
}

// DeadlineError is returned by Client.Do when the request's deadline budget
// is exhausted — refused by the server as unservable in the remaining
// budget, or given up on client-side before/between attempts.
type DeadlineError struct {
	Msg string
}

func (e *DeadlineError) Error() string { return "slurm: deadline exceeded: " + e.Msg }

// maxRetryAfterMS clamps the server-supplied (and therefore, from the
// client's point of view, untrusted) retry-after hint: a hostile value must
// not overflow duration math or park a client forever.
const maxRetryAfterMS = int64(time.Minute / time.Millisecond)

func clampRetryAfterMS(ms int64) time.Duration {
	if ms < 0 {
		ms = 0
	}
	if ms > maxRetryAfterMS {
		ms = maxRetryAfterMS
	}
	return time.Duration(ms) * time.Millisecond
}

// NotPrimaryError is a structured server rejection from a node that cannot
// accept mutations in its current HA role: a standby, or a fenced primary.
// A multi-endpoint client's retry loop rotates endpoints on seeing it.
type NotPrimaryError struct {
	Role  string
	Epoch int64
	Msg   string
}

func (e *NotPrimaryError) Error() string { return fmt.Sprintf("slurm: server: %s", e.Msg) }

// splitAddrs parses a comma-separated endpoint list.
func splitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Dial connects to a server. addr may be a comma-separated endpoint list
// ("host:port,host:port"); the first endpoint that accepts a connection wins.
func Dial(addr string) (*Client, error) {
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("slurm: no addresses in %q", addr)
	}
	c := &Client{addrs: addrs}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// DialRetry connects with the default retry policy, seeding the backoff
// jitter stream from seed.
func DialRetry(addr string, seed uint64) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.Retry = retry.DefaultPolicy(seed)
	return c, nil
}

// rotate advances to the next endpoint, so the following redial tries it
// first.
func (c *Client) rotate() {
	c.cur = (c.cur + 1) % len(c.addrs)
}

// redial replaces a broken connection, trying each endpoint starting from
// the current one; the first that accepts wins.
func (c *Client) redial() error {
	c.Close()
	var firstErr error
	for i := 0; i < len(c.addrs); i++ {
		k := (c.cur + i) % len(c.addrs)
		conn, err := lineproto.Dial(c.addrs[k], 0)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("slurm: %w", err)
			}
			continue
		}
		c.cur, c.conn = k, conn
		return nil
	}
	return firstErr
}

// Close closes the connection. The client stays usable: the next Do redials.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Do sends one request and reads one response. With a Retry policy set it
// transparently retries shed (BUSY/SHED) requests, and — for idempotent
// requests — transport failures, reconnecting as needed. With a
// DeadlineBudget set, every attempt carries the remaining budget on the
// wire and the whole call (sleeps included) gives up once it is spent.
func (c *Client) Do(req Request) (Response, error) {
	var deadline time.Time
	if c.DeadlineBudget > 0 && req.DeadlineMS == 0 {
		deadline = time.Now().Add(c.DeadlineBudget)
	}
	stamp := func() bool {
		if deadline.IsZero() {
			return true
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return false
		}
		ms := rem.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMS = ms
		return true
	}
	if !stamp() {
		return Response{}, &DeadlineError{Msg: "budget spent before sending " + req.Op}
	}
	resp, err := c.doOnce(req)
	if err == nil || c.Retry == nil {
		return resp, err
	}
	for attempt := 0; attempt < c.Retry.MaxAttempts-1; attempt++ {
		var retryAfter time.Duration
		var busy *BusyError
		var np *NotPrimaryError
		switch {
		case errors.As(err, &busy):
			retryAfter = busy.RetryAfter
		case errors.As(err, &np) && len(c.addrs) > 1,
			isTransportError(err) && idempotentRequest(req):
			// Either the node refused because of its HA role — the operation
			// was not performed, so retrying elsewhere is safe even untokened,
			// given somewhere else to go — or the connection is suspect.
			// Rebuild it against the next endpoint first, so a black-holed
			// primary doesn't eat every retry. A failed redial is itself
			// retried on the next loop iteration.
			c.rotate()
			if rerr := c.redial(); rerr != nil {
				err = rerr
				c.Retry.Wait(c.Retry.Delay(attempt, 0))
				continue
			}
		default:
			return resp, err // application error (incl. deadline): not retryable
		}
		delay := c.Retry.Delay(attempt, retryAfter)
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			// Sleeping would outlive the budget; surface the give-up as a
			// deadline error carrying the last server answer.
			return resp, &DeadlineError{Msg: fmt.Sprintf("budget spent retrying %s: %v", req.Op, err)}
		}
		c.Retry.Wait(delay)
		if !stamp() {
			return resp, &DeadlineError{Msg: fmt.Sprintf("budget spent retrying %s: %v", req.Op, err)}
		}
		resp, err = c.doOnce(req)
		if err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// doOnce performs one attempt, hedged for idempotent reads when a hedge
// policy is set.
func (c *Client) doOnce(req Request) (Response, error) {
	if c.Hedge != nil && c.Hedge.Delay > 0 && hedgeable(req) {
		return c.doHedged(req)
	}
	return c.do1(req)
}

func (c *Client) do1(req Request) (Response, error) {
	// No transport yet, or one a failed round trip left desynchronised.
	if c.conn == nil || c.conn.Broken() {
		if err := c.redial(); err != nil {
			return Response{}, err
		}
	}
	return exchange(c.conn, c.Timeout, req)
}

// exchange runs one request/response round trip over an explicit transport.
// It is the common leg under do1 and the hedged path: the hedge goroutine
// captures the transport by value, so a concurrent reassignment of the
// client's fields cannot race with an in-flight attempt.
func exchange(conn *lineproto.Conn, timeout time.Duration, req Request) (Response, error) {
	var resp Response
	if err := conn.Call(req, &resp, timeout); err != nil {
		return Response{}, fmt.Errorf("slurm: %w", err)
	}
	if resp.Busy || resp.Shed {
		return resp, &BusyError{RetryAfter: clampRetryAfterMS(resp.RetryAfterMS), Shed: resp.Shed}
	}
	if resp.DeadlineExceeded {
		return resp, &DeadlineError{Msg: resp.Error}
	}
	if resp.Error != "" {
		if resp.Role != "" {
			// Only HA role rejections carry a role; see Server.opErr.
			return resp, &NotPrimaryError{Role: resp.Role, Epoch: resp.Epoch, Msg: resp.Error}
		}
		return resp, fmt.Errorf("slurm: server: %s", resp.Error)
	}
	return resp, nil
}

// isTransportError reports whether err is a connection-level failure (as
// opposed to a structured server error).
func isTransportError(err error) bool {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	var oerr *net.OpError
	return errors.As(err, &oerr)
}

// Submit submits a job and returns its ID. Optional dependency IDs
// implement sbatch --dependency=afterok.
func (c *Client) Submit(app string, nodes int, wall, runtime des.Duration, name string, after ...int64) (int64, error) {
	resp, err := c.Do(Request{Op: "submit", App: app, Nodes: nodes,
		Walltime: float64(wall), Runtime: float64(runtime), Name: name, After: after})
	return resp.ID, err
}

// SubmitToken submits with a client-supplied idempotency token: the server
// dedupes repeats of the same token, so retrying after a lost response is
// safe (the original job's ID comes back instead of a duplicate job).
func (c *Client) SubmitToken(token, app string, nodes int, wall, runtime des.Duration, name string, after ...int64) (int64, error) {
	resp, err := c.Do(Request{Op: "submit", Token: token, App: app, Nodes: nodes,
		Walltime: float64(wall), Runtime: float64(runtime), Name: name, After: after})
	return resp.ID, err
}

// Cancel cancels a pending job.
func (c *Client) Cancel(id int64) error {
	_, err := c.Do(Request{Op: "cancel", ID: id})
	return err
}

// Queue lists pending and running jobs (plus history when asked).
func (c *Client) Queue(history bool) ([]JobInfo, error) {
	resp, err := c.Do(Request{Op: "queue", History: history})
	return resp.Jobs, err
}

// QueuePage lists jobs with explicit pagination and returns the page plus
// the total row count before slicing.
func (c *Client) QueuePage(history bool, limit, offset int) ([]JobInfo, int, error) {
	resp, err := c.Do(Request{Op: "queue", History: history, Limit: limit, Offset: offset})
	total := resp.Total
	if total == 0 && err == nil {
		total = len(resp.Jobs)
	}
	return resp.Jobs, total, err
}

// Health asks the server for its health state: ok | degraded | draining |
// fenced.
func (c *Client) Health() (string, error) {
	resp, err := c.Do(Request{Op: "health"})
	return resp.Health, err
}

// HealthInfo is Health plus the node's HA role and epoch (empty and zero on
// a standalone server).
func (c *Client) HealthInfo() (health, role string, epoch int64, err error) {
	resp, err := c.Do(Request{Op: "health"})
	return resp.Health, resp.Role, resp.Epoch, err
}

// HealthFull returns the entire health reply, including the brownout state
// and degradation counters a serve-features-on server attaches.
func (c *Client) HealthFull() (Response, error) {
	return c.Do(Request{Op: "health"})
}

// Nodes lists node states.
func (c *Client) Nodes() ([]NodeInfo, error) {
	resp, err := c.Do(Request{Op: "nodes"})
	return resp.Nodes, err
}

// Advance moves simulated time forward and returns the new clock.
func (c *Client) Advance(d des.Duration) (des.Time, error) {
	resp, err := c.Do(Request{Op: "advance", Seconds: float64(d)})
	return des.Time(resp.Now), err
}

// Drain runs the simulation until all work completes.
func (c *Client) Drain() (des.Time, error) {
	resp, err := c.Do(Request{Op: "drain"})
	return des.Time(resp.Now), err
}

// Stats fetches the run metrics.
func (c *Client) Stats() (metrics.Result, error) {
	resp, err := c.Do(Request{Op: "stats"})
	if err != nil {
		return metrics.Result{}, err
	}
	if resp.Stats == nil {
		return metrics.Result{}, fmt.Errorf("slurm: stats response without payload")
	}
	return *resp.Stats, nil
}

// DrainNode removes a node from scheduling.
func (c *Client) DrainNode(ni int) error {
	_, err := c.Do(Request{Op: "drain_node", Node: ni})
	return err
}

// ResumeNode returns a drained node to service.
func (c *Client) ResumeNode(ni int) error {
	_, err := c.Do(Request{Op: "resume_node", Node: ni})
	return err
}

// Requeue evicts a running job back to the queue (scontrol requeue).
func (c *Client) Requeue(id int64) error {
	_, err := c.Do(Request{Op: "requeue", ID: id})
	return err
}

// DownNode forces a node down, evicting and requeueing its jobs.
func (c *Client) DownNode(ni int) error {
	_, err := c.Do(Request{Op: "down_node", Node: ni})
	return err
}

// UpNode returns a down node to service.
func (c *Client) UpNode(ni int) error {
	_, err := c.Do(Request{Op: "up_node", Node: ni})
	return err
}
