package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"repro/cmd/internal/flagtable"
	"repro/internal/fabric"
	"repro/internal/sweepgrid"
)

func testSpec() sweepgrid.Spec {
	return sweepgrid.Spec{
		Policies: []string{"easy"},
		Loads:    []float64{0.9, 1.2, 1.5},
		Seeds:    2,
		Nodes:    8,
		Jobs:     30,
		Mix:      "trinity",
		Scale:    0.05,
	}
}

// startDispatcher serves spec on an ephemeral port, collecting flushed rows.
func startDispatcher(t *testing.T, spec sweepgrid.Spec) (*fabric.Dispatcher, string, func() [][]byte) {
	t.Helper()
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rows [][]byte
	d, err := fabric.NewDispatcher(fabric.Config{
		Cells: spec.NumCells(),
		Spec:  raw,
		Consume: func(i int, res []byte) error {
			mu.Lock()
			defer mu.Unlock()
			rows = append(rows, append([]byte(nil), res...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, addr, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), rows...)
	}
}

// queryHealth exercises the daemon's health verb over TCP, as an operator or
// fleet manager would.
func queryHealth(t *testing.T, addr string) fabric.HealthReport {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(`{"op":"health"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal("no health reply")
	}
	var rep fabric.HealthReport
	if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
		t.Fatalf("bad health reply %q: %v", sc.Bytes(), err)
	}
	return rep
}

// TestDaemonRunsCampaign drives a real (small) sweep grid through the daemon
// and asserts the dispatcher reassembles exactly the rows the spec computes
// locally, while the health verb answers ok.
func TestDaemonRunsCampaign(t *testing.T) {
	spec := testSpec()
	d, addr, rows := startDispatcher(t, spec)

	dm, err := newDaemon(addr, "test-daemon", 2, 10*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	hb, stop, err := fabric.ServeHealth("127.0.0.1:0", dm.healthReport)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rep := queryHealth(t, hb)
	if !rep.OK || rep.Health != fabric.HealthOK {
		t.Fatalf("pre-run health = %+v, want ok", rep)
	}

	done := make(chan struct{})
	go func() { dm.Run(context.Background()); close(done) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Wait(ctx); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon loops did not exit after campaign completion")
	}

	got := rows()
	if len(got) != spec.NumCells() {
		t.Fatalf("got %d rows, want %d", len(got), spec.NumCells())
	}
	for i, row := range got {
		want, err := spec.RunCellBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, want) {
			t.Fatalf("row %d:\n got %q\nwant %q", i, row, want)
		}
	}

	rep = queryHealth(t, hb)
	if rep.Fabric.CellsDone != int64(spec.NumCells()) {
		t.Fatalf("health cells_done = %d, want %d", rep.Fabric.CellsDone, spec.NumCells())
	}
	if len(rep.Fabric.Workers) != 2 {
		t.Fatalf("health lists %d workers, want 2", len(rep.Fabric.Workers))
	}
}

// TestDaemonDrain asserts a drained daemon exits before the campaign is done
// and reports draining on the health verb — the graceful half of the signal
// ladder.
func TestDaemonDrain(t *testing.T) {
	spec := testSpec()
	_, addr, _ := startDispatcher(t, spec)

	dm, err := newDaemon(addr, "drain-daemon", 1, 10*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	dm.Drain() // drain before any lease: the loop says goodbye and exits

	done := make(chan struct{})
	go func() { dm.Run(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drained daemon did not exit")
	}
	if rep := dm.healthReport(); rep.Health != fabric.HealthDraining {
		t.Fatalf("health after drain = %+v, want draining", rep)
	}
}

// TestDaemonRejectsBadSpec: a dispatcher advertising a cell count that
// disagrees with its own spec must be refused at hello time.
func TestDaemonRejectsBadSpec(t *testing.T) {
	spec := testSpec()
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d, err := fabric.NewDispatcher(fabric.Config{
		Cells:   spec.NumCells() + 1, // lie about the grid size
		Spec:    raw,
		Consume: func(int, []byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := newDaemon(addr, "bad", 1, 5*time.Second, 0); err == nil {
		t.Fatal("daemon accepted a spec disagreeing with the advertised cell count")
	}
}

// TestRunCheckHealth maps the -check-health query mode's exit codes: 0 for a
// healthy or draining daemon, 2 for a fenced or quarantined one, 1 when the
// daemon is unreachable — so supervisors can branch on the code alone.
func TestRunCheckHealth(t *testing.T) {
	status := "ok"
	bound, stop, err := fabric.ServeHealth("127.0.0.1:0", func() fabric.HealthReport {
		return fabric.HealthReport{OK: true, Health: status}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		health string
		want   int
	}{
		{fabric.HealthOK, 0},
		{fabric.HealthDraining, 0},
		{fabric.HealthFenced, 2},
		{fabric.HealthQuarantined, 2},
	} {
		status = tc.health
		var buf bytes.Buffer
		if got := runCheckHealth(bound, &buf); got != tc.want {
			t.Fatalf("check-health(%s) = %d, want %d", tc.health, got, tc.want)
		}
		var rep fabric.HealthReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil || rep.Health != tc.health {
			t.Fatalf("check-health(%s) printed %q (parse err %v)", tc.health, buf.Bytes(), err)
		}
	}
	stop()
	if got := runCheckHealth(bound, new(bytes.Buffer)); got != 1 {
		t.Fatalf("check-health(unreachable) = %d, want 1", got)
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable): every
// numeric flag with 0, −1, NaN, +Inf and 1e308. Flags are checked before any
// mode runs, so the table runs them in the -check-health mode against a
// healthy daemon; a value that passes prints that daemon's health.
func TestNumericFlags(t *testing.T) {
	bound, stop, err := fabric.ServeHealth("127.0.0.1:0", func() fabric.HealthReport {
		return fabric.HealthReport{OK: true, Health: fabric.HealthOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ok, no := true, false
	flagtable.Check(t, run, nil, []string{"-check-health", bound}, map[string][5]bool{
		// The outcomes for 0, −1, NaN, +Inf and 1e308.
		"parallel":      {ok, no, no, no, no}, // 0: all cores; -1 meant all cores too
		"spec-timeout":  {ok, no, no, no, no}, // 0: one attempt; the rest are not durations
		"max-reconnect": {ok, no, no, no, no}, // 0: retry forever; -1 meant that too
	})
}
