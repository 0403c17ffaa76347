package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/slurm"
)

// submitLoad is the closed loop against an in-process HA pair: every caller
// waits for its reply before sending the next request, like sbatch. It is the
// durable, replicated write path end to end.
type submitLoad struct{}

// haLease is long enough that no scheduling hiccup of the sandbox fences the
// primary or promotes the standby mid-run: failover is not what this workload
// measures.
const haLease = 10 * time.Second

type submitInstance struct {
	cfg              *runConfig
	tmp              string
	replay           *replay
	primary, standby *ctlNode
	link             *forwarder // replication link relay, traced set-ups only
	callers          []*caller
}

func (submitLoad) setUp(cfg *runConfig, res *result, traced bool) (instance, error) {
	jobs := 60000
	if cfg.short {
		jobs = 2000
	}
	s := &submitInstance{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.replay, err = newReplay(cfg.seed, jobs); err != nil {
		return nil, err
	}
	if s.tmp, err = os.MkdirTemp(cfg.outDir, "submit-"); err != nil {
		return nil, err
	}
	if s.primary, err = startNode(s.tmp, syncModel); err != nil {
		return nil, err
	}
	if s.standby, err = startNode(s.tmp, syncModel); err != nil {
		return nil, err
	}
	peer := s.standby.addr
	if traced {
		if s.link, err = newForwarder(peer); err != nil {
			return nil, err
		}
		peer = s.link.addr()
	}
	if err := s.primary.ctl.StartHA(slurm.HAOptions{Peer: peer, Lease: haLease}); err != nil {
		return nil, err
	}
	if err := s.standby.ctl.StartHA(slurm.HAOptions{Standby: true, Peer: s.primary.addr, Lease: haLease}); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.threads; i++ {
		c, err := dialCaller(s.primary.addr, nil, 0)
		if err != nil {
			return nil, err
		}
		s.callers = append(s.callers, c)
	}
	ok = true
	return s, nil
}

func (s *submitInstance) close() {
	for _, c := range s.callers {
		c.cl.Close()
	}
	for _, n := range []*ctlNode{s.primary, s.standby} {
		if n != nil {
			_ = n.stop() // already stopped after a completed run; the error was reported there
		}
	}
	if s.link != nil {
		s.link.close()
	}
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

// drive runs the closed loop on every caller until the deadline and returns
// the wall time until the last caller finished its last request.
func (s *submitInstance) drive(d time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	errs := make([]error, len(s.callers))
	var wg sync.WaitGroup
	for i, c := range s.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op, ok := s.replay.nextOp()
				if !ok {
					errs[i] = fmt.Errorf("trace of %d jobs used up before the window ended", len(s.replay.jobs))
					return
				}
				verb, req := op.request()
				if _, _, err := c.do(verb, req); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

func (s *submitInstance) measure(d time.Duration, tr *tracer, res *result) error {
	// Untimed warm-up: connections, journals and the replication link have
	// all carried traffic before the window opens.
	warm := 500 * time.Millisecond
	if s.cfg.short {
		warm = 50 * time.Millisecond
	}
	if _, err := s.drive(warm); err != nil {
		return err
	}
	for _, c := range s.callers {
		c.reset(tr, 1)
	}
	ackedBefore := 0
	for _, c := range s.callers {
		ackedBefore += len(c.acked)
	}
	fsBefore, standbyBefore := s.primary.fs.c.snapshot(), s.standby.fs.c.snapshot()
	var linkReq, linkBytes int64
	if s.link != nil {
		linkReq, linkBytes = s.link.requests.Load(), s.link.bytes.Load()
	}

	root := tr.start(0, 1, "ctl.window")
	wall, err := s.drive(d)
	root.end(nil)
	if err != nil {
		return err
	}

	rtt, acked := mergeCallers(s.callers, res)
	inWindow := len(acked) - ackedBefore
	if inWindow <= 0 {
		return fmt.Errorf("no submit was acknowledged in %v", wall)
	}
	res.set("submit_acked_per_s", float64(inWindow)/wall.Seconds())
	res.note("submit_acked_per_s", "%d acknowledged in %.3f s by %d closed-loop callers", inWindow, wall.Seconds(), len(s.callers))
	res.latency("submit_p50_ms", "submit_p95_ms", 95, rtt["submit"])
	res.headlineMS = res.values["submit_p50_ms"]

	per := float64(inWindow)
	fsyncMetrics(s.primary.fs.c.snapshot().sub(fsBefore), wall, inWindow, res)
	res.set("slurm.standby_fsyncs_per_acked_submit", float64(s.standby.fs.c.snapshot().sub(standbyBefore).syncs)/per)
	if s.link != nil {
		res.set("slurm.replicate_round_trips_per_submit", float64(s.link.requests.Load()-linkReq)/per)
		res.set("slurm.replicate_bytes_per_submit", float64(s.link.bytes.Load()-linkBytes)/per)
	}
	if err := healthMetrics(s.callers[0], res); err != nil {
		return err
	}

	// Acknowledged means durable, on both replicas.
	want := len(acked)
	if s.cfg.inject == "drop-ack" {
		want++
	}
	replayTook, err := auditAcked(s.primary, want, acked, res, s.standby)
	if err != nil {
		return err
	}
	res.set("slurm.recovery_replay_s", replayTook.Seconds())
	a, err := os.ReadFile(filepath.Join(s.primary.dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	b, err := os.ReadFile(filepath.Join(s.standby.dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		res.problem("standby journal (%d bytes) is not byte-identical to the primary's (%d bytes)", len(b), len(a))
	}
	return nil
}
