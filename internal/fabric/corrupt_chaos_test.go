package fabric

// Corrupt-worker chaos acceptance (DESIGN §14): the containment counterpart
// to chaos_test.go's crash-fault run. The fleet here contains workers that
// fail by LYING, not stopping — a byte-flipper whose completions are
// corrupted in transit, and a deterministic bad cell that fails on every
// worker that touches it — plus a crash-looping worker, and the dispatcher
// is killed and restarted mid-campaign. The healthy portion of the output
// must still be byte-identical to the sequential golden, the bad cell must
// poison (not sink the campaign), the flipper must be checksum-rejected and
// quarantined, and both verdicts must survive the restart via the journal.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// rawFabricClient speaks the wire protocol by hand, so tests can send frames
// no honest Worker would: payloads whose checksum disagrees with their bytes.
type rawFabricClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	spec []byte
	gen  int64
}

func dialRawClient(t *testing.T, addr, worker string) *rawFabricClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c := &rawFabricClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	hello := c.rpc(request{Op: "hello", Worker: worker})
	if !hello.OK {
		t.Fatalf("hello: %+v", hello)
	}
	c.spec = hello.Spec
	c.gen = hello.Gen
	return c
}

func (c *rawFabricClient) rpc(req request) response {
	c.t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatalf("raw write: %v", err)
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("raw read: %v", err)
	}
	resp, err := decodeResponse(bytes.TrimRight(line, "\n"))
	if err != nil {
		c.t.Fatalf("raw decode: %v", err)
	}
	return resp
}

func (c *rawFabricClient) close() { c.conn.Close() }

func TestCorruptWorkerChaosAcceptance(t *testing.T) {
	const (
		n          = 32
		poisonCell = 9 // fails deterministically on every worker
		crashCell  = 5 // kills its executor on the first two attempts
	)
	golden := make([][]byte, n)
	for i := range golden {
		golden[i] = []byte(fmt.Sprintf("cell-%d:%d", i, i*i))
	}
	spec := []byte(`{"kind":"corrupt-chaos"}`)
	jpath := filepath.Join(t.TempDir(), "campaign.journal")
	defer saveJournalArtifact(t, jpath)

	// The poisoned cell never completes, so the shared gapless collector
	// would misfire. Each dispatcher incarnation gets its own sink (a
	// restart replays journaled rows through Consume again); the final
	// byte-identical check runs against the restarted incarnation's output.
	type sink struct {
		mu      sync.Mutex
		flushed []int
		rows    map[int][]byte
	}
	mkSink := func() *sink { return &sink{rows: map[int][]byte{}} }
	consumeInto := func(s *sink) func(int, []byte) error {
		return func(i int, res []byte) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if len(s.flushed) > 0 && i <= s.flushed[len(s.flushed)-1] {
				t.Errorf("consume out of order: %d after %d", i, s.flushed[len(s.flushed)-1])
			}
			s.flushed = append(s.flushed, i)
			s.rows[i] = append([]byte(nil), res...)
			return nil
		}
	}

	mkConfig := func(s *sink) Config {
		return Config{
			Cells:           n,
			Spec:            spec,
			Consume:         consumeInto(s),
			JournalPath:     jpath,
			FS:              vfs.OS{},
			LeaseTTL:        3 * time.Second,
			DisconnectGrace: 300 * time.Millisecond,
			HeartbeatEvery:  200 * time.Millisecond,
			Window:          n,
			SpecMinSamples:  1 << 30, // no speculation: this run is about integrity
			PoisonAfter:     2,
			RetryBackoff:    20 * time.Millisecond,
			IdleWaitMS:      25,
		}
	}

	d1, err := NewDispatcher(mkConfig(mkSink()))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dumpDecisions(t, d1)

	// ---- phase 1: the byte-flipper, alone and synchronously ----
	// It leases a cell, computes the RIGHT row and the right checksum for it,
	// then flips a payload byte before sending: corruption between
	// computation and transport. The dispatcher must reject the completion at
	// the checksum gate and quarantine the sender on the spot.
	flip := dialRawClient(t, addr, "w-flip")
	lease := flip.rpc(request{Op: "lease", Worker: "w-flip"})
	if !lease.Granted {
		t.Fatalf("flipper lease: %+v", lease)
	}
	row := golden[lease.Cell]
	corrupted := append([]byte(nil), row...)
	corrupted[0] ^= 0xff
	done := flip.rpc(request{
		Op: "complete", Worker: "w-flip", Cell: lease.Cell, Epoch: lease.Epoch,
		Gen: lease.Gen, Result: corrupted,
		Sum: completionSum(specSHA(flip.spec), lease.Cell, row),
	})
	if !done.Rejected {
		t.Fatalf("corrupt completion not rejected: %+v", done)
	}
	if again := flip.rpc(request{Op: "lease", Worker: "w-flip"}); again.Granted || !again.Quarantined {
		t.Fatalf("flipper not quarantined after integrity violation: %+v", again)
	}
	flip.close()
	if ctrs := d1.Counters(); ctrs.ChecksumRejects < 1 || ctrs.QuarantinedWorkers < 1 {
		t.Fatalf("phase 1 counters = %+v", ctrs)
	}

	// ---- phase 2: honest fleet + crash-looper + deterministic bad cell ----
	var (
		crashes   atomic.Int64
		poisonTry atomic.Int64
		workers   sync.Map
	)
	mkFn := func(id string) func(context.Context, int, func(float64)) ([]byte, error) {
		return func(ctx context.Context, cell int, progress func(float64)) ([]byte, error) {
			switch cell {
			case poisonCell:
				poisonTry.Add(1)
				return nil, errors.New("synthetic: this cell is bad on every worker")
			case crashCell:
				if crashes.Add(1) <= 2 {
					if w, ok := workers.Load(id); ok {
						w.(*Worker).Kill()
					}
					<-ctx.Done()
					return nil, ctx.Err()
				}
			}
			return golden[cell], nil
		}
	}
	var startWorker func(id string)
	startWorker = func(id string) {
		w, err := NewWorker(WorkerConfig{
			ID:             id,
			Addr:           addr,
			Fn:             mkFn(id),
			RequestTimeout: 500 * time.Millisecond,
			IdleWait:       25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers.Store(id, w)
		go func() {
			err := w.Run(context.Background())
			// A killed worker crash-loops: its manager restarts it under a
			// fresh identity, as a fleet supervisor would.
			if err != nil && crashes.Load() <= 2 {
				startWorker(fmt.Sprintf("%s-r%d", id, crashes.Load()))
			}
		}()
	}
	for _, id := range []string{"w-a", "w-b", "w-c"} {
		startWorker(id)
	}

	// Wait until both containment verdicts exist, then kill the dispatcher
	// mid-campaign: the restart must re-arm them from the journal alone.
	waitUntil(t, 30*time.Second, "poison + quarantine recorded", func() bool {
		h := d1.Health()
		return h.Poisoned >= 1 && h.QuarantinedWorkers >= 1
	})
	d1.Close()
	// Close waited for every handler, so this is the final fenced set — the
	// flipper, plus any honest worker that drew the poison cell often enough
	// to strike out — and exactly what the journal holds.
	fenced := d1.Health().Quarantined

	finalSink := mkSink()
	d2, err := NewDispatcher(mkConfig(finalSink))
	if err != nil {
		t.Fatal(err)
	}
	listenOn(t, d2, addr)
	defer d2.Close()
	defer dumpDecisions(t, d2)

	// The journal must have replayed both verdicts into the new incarnation.
	h := d2.Health()
	if h.Poisoned < 1 || len(h.PoisonedCells) < 1 || h.PoisonedCells[0] != poisonCell {
		t.Fatalf("restart lost the poison verdict: %+v", h)
	}
	if !reflect.DeepEqual(h.Quarantined, fenced) || !slices.Contains(fenced, "w-flip") {
		t.Fatalf("restart lost the quarantine verdict: %+v, had %v", h, fenced)
	}
	// The flipper, reconnecting to the new incarnation, is still fenced.
	flip2 := dialRawClient(t, addr, "w-flip")
	if r := flip2.rpc(request{Op: "lease", Worker: "w-flip"}); r.Granted || !r.Quarantined {
		t.Fatalf("quarantine not enforced after restart: %+v", r)
	}
	flip2.close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = d2.Wait(ctx)
	var perr *PoisonedError
	if !errors.As(err, &perr) {
		t.Fatalf("Wait = %v, want *PoisonedError (counters=%+v)", err, d2.Counters())
	}
	if len(perr.Cells) != 1 || perr.Cells[0].Cell != poisonCell {
		t.Fatalf("poisoned cells = %+v, want exactly cell %d", perr.Cells, poisonCell)
	}

	// Byte-identical healthy output: across corruption, poisoning, a crash
	// loop, and a dispatcher restart, every non-poisoned row equals the
	// sequential golden and arrives in strict index order (the consume hook
	// already asserted monotonicity).
	finalSink.mu.Lock()
	defer finalSink.mu.Unlock()
	if len(finalSink.rows) != n-1 {
		t.Fatalf("flushed %d rows, want %d (all but the poisoned cell)", len(finalSink.rows), n-1)
	}
	for i := 0; i < n; i++ {
		if i == poisonCell {
			if _, ok := finalSink.rows[i]; ok {
				t.Fatalf("poisoned cell %d reached the consumer", i)
			}
			continue
		}
		if !bytes.Equal(finalSink.rows[i], golden[i]) {
			t.Fatalf("row %d = %q, want %q", i, finalSink.rows[i], golden[i])
		}
	}
	// The machinery demonstrably fired: the bad cell was tried on at least
	// two distinct workers, the crasher crashed, the flipper was rejected.
	if got := poisonTry.Load(); got < 2 {
		t.Errorf("bad cell executed %d times, want ≥2 (distinct-worker poisoning)", got)
	}
	if got := crashes.Load(); got < 2 {
		t.Errorf("crash-looper crashed %d times, want ≥2", got)
	}
}
