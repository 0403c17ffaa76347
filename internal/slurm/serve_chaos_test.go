package slurm

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/vfs"
)

// stallFS injects fsync latency: every journal Sync costs a fixed sleep, the
// disk-side half of the combined-fault scenario. (The network half is the
// chaos proxy.) Deterministic — same stall every sync — so the acceptance
// run is a pure function of the seed.
type stallFS struct {
	vfs.FS
	stall time.Duration
}

type stallFile struct {
	vfs.File
	stall time.Duration
}

func (fs stallFS) Create(path string) (vfs.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return stallFile{f, fs.stall}, nil
}

func (fs stallFS) OpenAppend(path string) (vfs.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return stallFile{f, fs.stall}, nil
}

func (f stallFile) Sync() error {
	time.Sleep(f.stall)
	return f.File.Sync()
}

// TestServeChaosAcceptance is the acceptance gate for the request-robustness
// layer: an open-loop storm at roughly 2x the (fsync-stalled) controller's
// capacity, through a seeded chaos proxy injecting network delays and
// connection drops, on a journal whose every fsync stalls. Under all of that:
//
//   - control-class verbs stay under a fixed p99 bound (the operator is
//     never locked out),
//   - submit goodput stays above a floor (shedding is graceful, not a cliff),
//   - the shed/brownout machinery demonstrably engaged (otherwise the run
//     proved nothing), and
//   - after the storm stops, health probes alone walk the brownout ladder
//     back to NORMAL.
//
// Everything is seeded; run it under -race (CI does).
func TestServeChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance is a multi-second storm")
	}
	const seed = 20260808

	dir := t.TempDir()
	cfg := testControllerConfig()
	cfg.Overload = OverloadConfig{
		MaxConns:             128,
		MaxInflight:          8,
		RetryAfter:           5 * time.Millisecond,
		HistoryLimit:         256,
		ShedTarget:           4 * time.Millisecond,
		ShedWindow:           25 * time.Millisecond,
		BrownoutStep:         100 * time.Millisecond,
		BrownoutCooldown:     200 * time.Millisecond,
		BrownoutHistoryLimit: 16,
		BrownoutStaleFor:     100 * time.Millisecond,
	}
	// Every journal fsync stalls 4ms: a submit-heavy storm saturates the
	// mutation path at ~250/s, so the offered load below is ~2x capacity.
	ctl, err := OpenJournaledFS(cfg, stallFS{vfs.OS{}, 4 * time.Millisecond}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(10 * time.Second)

	px, err := chaos.Listen(addr, chaos.Config{
		Seed: seed, Name: "serve-chaos",
		Drop:      0.0005,
		DelayProb: 0.05,
		DelayMin:  time.Millisecond,
		DelayMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	res, err := Storm{
		Addrs:          px.Addr(),
		Seed:           seed,
		Clients:        24,
		Rate:           1200, // ~480 submits/s offered against ~250/s of fsync capacity
		Duration:       3 * time.Second,
		Timeout:        2 * time.Second,
		DeadlineBudget: 500 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	st := px.Stats()
	t.Logf("chaos injected: %d drops, %d delays", st.Drops, st.Delays)
	if st.Drops == 0 && st.Delays == 0 {
		t.Fatal("chaos proxy injected nothing; the run proved nothing")
	}

	// Control verbs: bounded tail. The bound is generous (shared CI boxes,
	// -race) but a cliff — a wedged controller — blows far past it.
	control := res.Classes[classControl]
	if control.Sent == 0 {
		t.Fatal("no control-class requests ran")
	}
	const controlP99Bound = 400.0 // ms
	if control.P99ms > controlP99Bound {
		t.Errorf("control p99 = %.1fms, bound %.0fms", control.P99ms, controlP99Bound)
	}

	// Submit goodput floor: graceful degradation, not a cliff. 2x overload
	// with priority shedding should still land a healthy stream of submits.
	const goodputFloor = 5.0 // submits/sec
	if res.SubmitsPerSec < goodputFloor {
		t.Errorf("submit goodput = %.1f/s, floor %.0f/s", res.SubmitsPerSec, goodputFloor)
	}

	// The machinery must have engaged: the server shed something (volume or
	// priority), or the storm was not actually overload.
	sc := res.Health.Serve
	if sc == nil {
		t.Fatal("health reply carried no serve counters")
	}
	if sc.Busy+sc.Shed+sc.DeadlineExceeded == 0 {
		t.Error("no request was ever shed; offered load did not exceed capacity")
	}

	// Recovery: with the storm over, health probes alone must unwind the
	// ladder to NORMAL (if it ever climbed) and the shedder back to calm.
	probe, err := Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	probe.Timeout = 5 * time.Second
	deadline := time.Now().Add(15 * time.Second)
	for {
		hr, err := probe.HealthFull()
		if err == nil && hr.Brownout == "normal" && hr.Health == HealthOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never returned to NORMAL: health=%+v err=%v", hr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Exactly once, through the same proxy: every submit the storm saw
	// acknowledged — shed, delayed and dropped neighbours notwithstanding —
	// is one job under its acknowledged ID, and no replay made a second.
	// Unacknowledged extras are allowed: a dropped reply's submit may have
	// landed. (After recovery, so no page of the scan is a stale snapshot.)
	if res.DuplicateIDs > 0 {
		t.Errorf("%d of %d replayed tokens resolved to a second job ID", res.DuplicateIDs, res.Resubmits)
	}
	if extras, err := res.Audit(px.Addr(), seed); err != nil {
		t.Error(err)
	} else {
		t.Logf("audit: %d acknowledged submits present exactly once, %d unacknowledged extras", len(res.Acked), extras)
	}
}
