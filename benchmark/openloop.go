package main

import (
	"sync"
	"time"

	"repro/internal/des"
)

// An open loop sends on a schedule fixed before the run, whether or not the
// server keeps up: independent users do not wait for each other. Each
// operation is timed from the instant it was due, so the wait a stall imposes
// on the operations queued behind it is counted (the coordinated-omission
// case). Operations are handed to the connections through a queue that holds
// the whole step: a busy server never makes the generator drop or delay an
// arrival mid-step. What has not been started when the step ends is dropped,
// and counted.

// dueOp is one scheduled operation: what to do and when it is due, as an
// offset from the step's start.
type dueOp struct {
	due  time.Duration
	kind string
	// arg is the operation's payload; the generator does not look at it.
	arg any
}

// poissonSchedule draws arrivals at rate per second over d from rng; pick
// chooses each arrival's kind and payload.
func poissonSchedule(rng *des.RNG, rate float64, d time.Duration, pick func() (string, any)) []dueOp {
	var ops []dueOp
	at := 0.0
	for {
		at += rng.Exp(1 / rate)
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return ops
		}
		kind, arg := pick()
		ops = append(ops, dueOp{due: due, kind: kind, arg: arg})
	}
}

// opSample is one executed operation.
type opSample struct {
	kind    string
	latency time.Duration // completion − due
	err     error
}

// stepOutcome is what one open-loop step measured.
type stepOutcome struct {
	samples []opSample
	dropped int             // due but never started before the step ended
	late    []time.Duration // how late the generator released each operation
}

// runOpenLoop releases ops on their schedule to conns workers for the step's
// duration d. exec performs one operation on connection conn and returns its
// error. Workers finish what they have started when the step ends.
func runOpenLoop(ops []dueOp, d time.Duration, conns int, exec func(conn int, op dueOp) error) stepOutcome {
	// The queue holds every operation of the step, so releasing never blocks.
	queue := make(chan dueOp, len(ops))
	stop := make(chan struct{})
	perConn := make([][]opSample, conns)
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				// Stop wins over a non-empty queue: what has not been started
				// when the step ends is dropped, not run late.
				select {
				case <-stop:
					return
				default:
				}
				select {
				case <-stop:
					return
				case op := <-queue:
					err := exec(c, op)
					perConn[c] = append(perConn[c], opSample{
						kind: op.kind, latency: time.Since(start) - op.due, err: err,
					})
				}
			}
		}(c)
	}

	var out stepOutcome
	released := 0
	for _, op := range ops {
		if wait := op.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(start)
		if now >= d {
			break
		}
		out.late = append(out.late, now-op.due)
		queue <- op
		released++
	}
	if rest := d - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	wg.Wait()

	out.dropped = len(ops) - released + len(queue)
	for _, s := range perConn {
		out.samples = append(out.samples, s...)
	}
	return out
}
