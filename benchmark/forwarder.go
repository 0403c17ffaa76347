package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
)

// forwarder is a counting loopback relay placed between a client and a server
// of the repo's JSON-lines protocols on traced runs. It counts bytes in both
// directions and request lines (one line from the client is one round trip),
// without parsing them.
type forwarder struct {
	ln     net.Listener
	target string

	requests atomic.Int64
	bytes    atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newForwarder(target string) (*forwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func (f *forwarder) accept() {
	defer f.wg.Done()
	for {
		client, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		server, err := net.Dial("tcp", f.target)
		if err != nil {
			client.Close()
			continue
		}
		if !f.track(client, server) {
			client.Close()
			server.Close()
			return
		}
		f.wg.Add(2)
		go f.pipe(server, client, true)
		go f.pipe(client, server, false)
	}
}

// track registers a connection pair; it refuses once close has begun.
func (f *forwarder) track(a, b net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conns == nil {
		return false
	}
	f.conns[a] = struct{}{}
	f.conns[b] = struct{}{}
	return true
}

// pipe copies src to dst until either side closes, then closes both so the
// opposite pipe ends too.
func (f *forwarder) pipe(dst, src net.Conn, fromClient bool) {
	defer f.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f.bytes.Add(int64(n))
			if fromClient {
				f.requests.Add(int64(bytes.Count(buf[:n], []byte{'\n'})))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break // EOF, or a reset from close()
		}
	}
	dst.Close()
	src.Close()
}

// close stops accepting, severs every relayed connection and waits for the
// relay goroutines.
func (f *forwarder) close() {
	f.ln.Close()
	f.mu.Lock()
	for c := range f.conns {
		c.Close()
	}
	f.conns = nil
	f.mu.Unlock()
	f.wg.Wait()
}
