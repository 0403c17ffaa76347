package slurm

import (
	"net"
	"testing"

	"repro/internal/des"
)

// startServer boots a controller + server on a free port and returns a
// connected client.
func startServer(t *testing.T) (*Client, *Server) {
	t.Helper()
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srv
}

func TestProtocolLifecycle(t *testing.T) {
	cl, _ := startServer(t)

	name, policy, err := cl.Info()
	if err != nil {
		t.Fatal(err)
	}
	if name != "trinity-sim" || policy != "sharebackfill" {
		t.Fatalf("info = %q, %q", name, policy)
	}

	id, err := cl.Submit("minife", 2, 3600, 1800, "fe1")
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("no job ID")
	}

	jobs, err := cl.Queue(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != "RUNNING" {
		t.Fatalf("queue = %+v", jobs)
	}

	nodes, err := cl.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}

	now, err := cl.Advance(2000)
	if err != nil {
		t.Fatal(err)
	}
	if now != 2000 {
		t.Fatalf("advance → %v", now)
	}

	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	jobs, err = cl.Queue(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != "FINISHED" {
		t.Fatalf("history = %+v", jobs)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Finished != 1 || st.Policy != "sharebackfill" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProtocolErrors(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.Submit("no-such-app", 1, 100, 0, ""); err == nil {
		t.Fatal("bad submit accepted")
	}
	if err := cl.Cancel(999); err == nil {
		t.Fatal("bad cancel accepted")
	}
	if _, err := cl.Do(Request{Op: "frobnicate"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// The connection must survive errors.
	if _, err := cl.Do(Request{Op: "now"}); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestProtocolMalformedLine(t *testing.T) {
	ctl, err := NewController(testControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no error response to malformed request")
	}
}

func TestProtocolConcurrentClients(t *testing.T) {
	cl1, _ := startServer(t)
	addrStr := cl1.conn.RemoteAddr().String()
	cl2, err := Dial(addrStr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	done := make(chan error, 2)
	submit := func(cl *Client, app string) {
		var err error
		for i := 0; i < 10; i++ {
			if _, e := cl.Submit(app, 1, 3600, 1800, ""); e != nil {
				err = e
				break
			}
		}
		done <- err
	}
	go submit(cl1, "minife")
	go submit(cl2, "minimd")
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl1.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Finished != 20 {
		t.Fatalf("finished = %d, want 20", st.Finished)
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	cl, srv := startServer(t)
	srv.Close()
	// Existing client's next call fails once the connection drops.
	if _, err := cl.Advance(des.Duration(1)); err == nil {
		// The close may race the in-flight write; try once more.
		if _, err := cl.Advance(des.Duration(1)); err == nil {
			t.Fatal("client survived server close")
		}
	}
}
