package slurm

import (
	"expvar"
	"time"

	"repro/internal/lineproto"
)

// Hedged requests. Tail latency on read verbs is dominated by unlucky
// requests — a GC pause, a brownout page, a slow fsync holding the server's
// accept loop — so the client can race a second attempt against the first
// once the first has been outstanding longer than the hedge delay. Reads
// are idempotent, so issuing the same query twice is safe; the loser's
// connection is closed, which unblocks its goroutine (the in-flight
// exchange fails fast on a closed socket), so a hedge never leaks.
//
// The hedge dials the *next* endpoint in the client's list when there is
// one: against an HA pair the hedge lands on the standby, which serves
// reads, turning a stalled primary into one hedge-delay of added latency
// instead of a timeout.

// expClientHedges counts hedge attempts launched, process-wide.
var expClientHedges = expvar.NewInt("slurm_client_hedges")

// HedgePolicy tunes hedged requests. The zero value (or a nil policy on the
// Client) disables hedging.
type HedgePolicy struct {
	// Delay is how long the first attempt may be outstanding before a
	// second attempt is launched in parallel. <= 0 disables hedging.
	Delay time.Duration
}

// hedgeOutcome is one attempt's result plus the transport it ran on, so the
// winner's connection can be adopted and the loser's closed.
type hedgeOutcome struct {
	resp Response
	err  error
	conn *lineproto.Conn
	addr int // index into c.addrs this attempt used
}

// doHedged races the current connection against a fresh one dialed after
// Hedge.Delay. Invariants: the channel is buffered to hold both outcomes,
// so a losing goroutine can always complete its send and exit; the loser's
// connection is closed as soon as a winner is chosen, which cancels its
// in-flight exchange. The client adopts the winning transport.
func (c *Client) doHedged(req Request) (Response, error) {
	if c.conn == nil || c.conn.Broken() {
		if err := c.redial(); err != nil {
			return Response{}, err
		}
	}
	results := make(chan hedgeOutcome, 2)
	attempt := func(o hedgeOutcome) {
		o.resp, o.err = exchange(o.conn, c.Timeout, req)
		results <- o
	}
	go attempt(hedgeOutcome{conn: c.conn, addr: c.cur})

	timer := time.NewTimer(c.Hedge.Delay)
	defer timer.Stop()

	var first hedgeOutcome
	var hconn *lineproto.Conn // the hedge's connection, when one was launched
	select {
	case first = <-results:
	case <-timer.C:
		// Primary is slow; race a fresh connection against it. Prefer the
		// next endpoint so a wedged server isn't asked twice.
		hidx := (c.cur + 1) % len(c.addrs)
		if conn, derr := lineproto.Dial(c.addrs[hidx], 0); derr == nil {
			expClientHedges.Add(1)
			hconn = conn
			go attempt(hedgeOutcome{conn: conn, addr: hidx})
		}
		first = <-results
	}

	if hconn == nil {
		// No race: the primary finished alone (or the hedge dial failed).
		// Its transport stays installed; on a transport error the retry
		// loop redials as it would after do1.
		return first.resp, first.err
	}

	if first.err != nil {
		// The first finisher failed; the race is still live, so give the
		// other attempt its chance before surfacing an error. Closing the
		// loser-so-far's socket cancels its exchange, so the second result
		// arrives promptly either way.
		first.conn.Close()
		second := <-results
		if second.err == nil {
			c.conn, c.cur = second.conn, second.addr
			return second.resp, nil
		}
		second.conn.Close()
		c.conn = nil
		return first.resp, first.err
	}

	// First finisher won. Close the loser: its goroutine's exchange fails
	// fast on the closed socket and its send lands in the channel's spare
	// buffer slot, so nothing leaks.
	if first.conn == hconn {
		c.conn.Close() // primary lost
	} else {
		hconn.Close() // hedge lost (or never needed)
	}
	c.conn, c.cur = first.conn, first.addr
	return first.resp, first.err
}
