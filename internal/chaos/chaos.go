// Package chaos is a deterministic network-fault proxy for testing
// distributed behaviour: a TCP forwarder whose per-direction faults — drop
// (sever the connection), delay, and partition (black-hole traffic while
// keeping connections accepted) — are driven by named des RNG streams, so a
// failover or partition scenario is a reproducible pure function of the
// seed. Point a client at Proxy.Addr() instead of the real server, then
// script Partition/Heal around the traffic.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/des"
)

// Config shapes one proxy's fault behaviour. The zero value (beyond Name and
// Seed) forwards faithfully, which makes an un-faulted proxy a transparent
// baseline for the same test topology.
type Config struct {
	// Seed roots the fault RNG; Name isolates this proxy's streams from
	// other proxies sharing a seed (streams "<Name>/c2s" and "<Name>/s2c").
	Seed uint64
	Name string
	// Drop is the per-chunk probability of severing the whole connection —
	// a mid-request TCP reset, the failure retry logic must absorb.
	Drop float64
	// DelayProb delays a chunk by a Uniform(DelayMin, DelayMax) sleep,
	// modelling congestion without breaking byte order.
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
}

// Proxy forwards TCP connections to a target address, injecting faults.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener

	mu      sync.Mutex
	rngC2S  *des.RNG
	rngS2C  *des.RNG
	partC2S bool
	partS2C bool
	stats   Stats
	conns   map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup
}

// Listen starts a proxy on a free localhost port forwarding to target.
func Listen(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	root := des.NewRNG(cfg.Seed)
	p := &Proxy{
		cfg:    cfg,
		target: target,
		ln:     ln,
		rngC2S: root.Stream(cfg.Name + "/c2s"),
		rngS2C: root.Stream(cfg.Name + "/s2c"),
		conns:  make(map[net.Conn]bool),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Partition black-holes both directions: connections are still accepted and
// kept open, but every byte is silently discarded — the nastiest failure
// mode, because neither side sees an error, only silence.
func (p *Proxy) Partition() { p.SetPartition(true, true) }

// Heal restores forwarding in both directions. Bytes discarded while
// partitioned stay lost (as on a real network); connections opened across
// the partition keep working once healed.
func (p *Proxy) Heal() { p.SetPartition(false, false) }

// SetPartition sets each direction's black-hole state independently
// (client→server, server→client), for asymmetric partitions.
func (p *Proxy) SetPartition(c2s, s2c bool) {
	p.mu.Lock()
	p.partC2S, p.partS2C = c2s, s2c
	p.mu.Unlock()
}

// Stats is a snapshot of the faults actually injected, so a harness can
// report how much chaos a run really saw (a seed that happened to draw no
// faults proves nothing).
type Stats struct {
	Drops   int64 `json:"drops"`
	Delays  int64 `json:"delays"`
	Swallow int64 `json:"partition_chunks"`
}

// Stats returns cumulative injected-fault counts.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the proxy, severs every live connection, and waits for all
// forwarding goroutines to exit.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			return
		}
		p.conns[conn] = true
		p.conns[up] = true
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(conn, up, true)
		go p.pipe(up, conn, false)
	}
}

// pipe forwards one direction chunk by chunk, consulting the direction's
// RNG stream under the proxy lock so the fault sequence is a deterministic
// function of (seed, name, direction, chunk index) regardless of goroutine
// interleaving across connections.
func (p *Proxy) pipe(src, dst net.Conn, c2s bool) {
	defer p.wg.Done()
	defer p.forget(src, dst)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			drop, delay := p.fault(c2s)
			if drop {
				return // sever both sides mid-stream
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			if p.partitioned(c2s) {
				continue // black hole: swallow the chunk, keep reading
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// fault draws this chunk's fate from the direction's RNG stream.
func (p *Proxy) fault(c2s bool) (drop bool, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rng := p.rngS2C
	if c2s {
		rng = p.rngC2S
	}
	if p.cfg.Drop > 0 && rng.Float64() < p.cfg.Drop {
		p.stats.Drops++
		return true, 0
	}
	if p.cfg.DelayProb > 0 && rng.Float64() < p.cfg.DelayProb {
		d := rng.Uniform(float64(p.cfg.DelayMin), float64(p.cfg.DelayMax))
		p.stats.Delays++
		return false, time.Duration(d)
	}
	return false, 0
}

func (p *Proxy) partitioned(c2s bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	part := p.partS2C
	if c2s {
		part = p.partC2S
	}
	if part {
		p.stats.Swallow++
	}
	return part
}

// forget closes and untracks a connection pair.
func (p *Proxy) forget(a, b net.Conn) {
	a.Close()
	b.Close()
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
}
