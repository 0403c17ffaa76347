package slurm

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// haNode is one member of a test pair: a journaled controller behind a
// protocol server.
type haNode struct {
	ctl  *Controller
	srv  *Server
	addr string
	dir  string
}

func startNode(t *testing.T) *haNode {
	t.Helper()
	dir := t.TempDir()
	ctl, err := OpenJournaled(testControllerConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		ctl.Close()
	})
	return &haNode{ctl: ctl, srv: srv, addr: addr, dir: dir}
}

// startPair wires two nodes into an HA pair replicating directly (no chaos).
func startPair(t *testing.T, lease time.Duration) (a, b *haNode) {
	t.Helper()
	a, b = startNode(t), startNode(t)
	if err := a.ctl.StartHA(HAOptions{Peer: b.addr, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	if err := b.ctl.StartHA(HAOptions{Standby: true, Peer: a.addr, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", d, what)
}

// TestHAReplicationMirrorsState: acknowledged mutations are on the standby —
// same engine state AND a byte-identical journal — before the ack returns.
func TestHAReplicationMirrorsState(t *testing.T) {
	a, b := startPair(t, time.Second)
	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit("minife", 1, 3600, 1800, "job"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Advance(7200); err != nil {
		t.Fatal(err)
	}

	// The acks above were synchronous with replication: no waiting needed.
	sa, sb := stateOf(a.ctl), stateOf(b.ctl)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("standby state diverges from primary\nprimary %+v\nstandby %+v", sa, sb)
	}
	ja, err := os.ReadFile(journalFile(a.dir))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("standby journal not byte-identical to primary's:\nprimary %d bytes\nstandby %d bytes",
			len(ja), len(jb))
	}
	if len(ja) == 0 {
		t.Error("empty journals: replication test exercised nothing")
	}
}

// TestHAStandbyRejectsMutations: the standby serves reads and health but
// refuses writes with a role-carrying error the client can fail over on.
func TestHAStandbyRejectsMutations(t *testing.T) {
	a, b := startPair(t, time.Second)
	cl, err := Dial(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Submit("minife", 1, 3600, 1800, "nope")
	var np *NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("submit to standby: got %v, want NotPrimaryError", err)
	}
	if np.Role != RoleStandby || np.Epoch != 1 {
		t.Errorf("rejection carried role=%q epoch=%d, want standby/1", np.Role, np.Epoch)
	}
	if _, err := cl.Queue(false); err != nil {
		t.Errorf("read on standby: %v", err)
	}
	h, role, epoch, err := cl.HealthInfo()
	if err != nil || h != HealthOK || role != RoleStandby || epoch != 1 {
		t.Errorf("standby health = %q role=%q epoch=%d err=%v, want ok/standby/1", h, role, epoch, err)
	}
	clA, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	h, role, epoch, err = clA.HealthInfo()
	if err != nil || h != HealthOK || role != RolePrimary || epoch != 1 {
		t.Errorf("primary health = %q role=%q epoch=%d err=%v, want ok/primary/1", h, role, epoch, err)
	}
}

// TestHAHealthByteCompatWithoutHA: with HA off, the health response must not
// grow role/epoch keys — wire byte-compatibility with earlier releases.
func TestHAHealthByteCompatWithoutHA(t *testing.T) {
	n := startNode(t) // journaled, HA never started
	conn, err := net.Dial("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"health"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 4096)
	k, err := conn.Read(line)
	if err != nil {
		t.Fatal(err)
	}
	raw := string(line[:k])
	for _, key := range []string{"role", "epoch", "seq", "need_full"} {
		if strings.Contains(raw, `"`+key+`"`) {
			t.Errorf("HA-off health response leaks %q key: %s", key, raw)
		}
	}
}

// TestHAPromotionAndStaleEpochFencing: when the primary goes quiet the
// standby promotes under a bumped epoch, and the deposed primary's
// stale-epoch replication is rejected without touching the new primary's
// journal.
func TestHAPromotionAndStaleEpochFencing(t *testing.T) {
	lease := 200 * time.Millisecond
	a, b := startPair(t, lease)
	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit("minife", 1, 3600, 1800, "before"); err != nil {
		t.Fatal(err)
	}

	// Silence the primary's replication without telling the standby.
	a.ctl.StopHA()
	waitFor(t, 10*lease, "standby promotion", func() bool {
		role, _ := b.ctl.RoleEpoch()
		return role == RolePrimary
	})
	if _, epoch := b.ctl.RoleEpoch(); epoch != 2 {
		t.Errorf("promoted epoch = %d, want 2", epoch)
	}

	// The new primary must accept writes on its own (detached mode).
	clB, err := Dial(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	if _, err := clB.Submit("minife", 1, 3600, 1800, "after"); err != nil {
		t.Fatalf("promoted primary rejected a solo write: %v", err)
	}

	// A deposed primary replicating under the old epoch is fenced: request
	// rejected, journal byte-identical.
	before, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	stale := Request{Op: "replicate", Epoch: 1, Entries: []Entry{
		{Seq: 99, Epoch: 1, Op: "submit", App: "minife", Nodes: 1,
			Walltime: 3600, Runtime: 1800, Name: "stale", ID: 99},
	}}
	resp, err := clB.Do(stale)
	if err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("stale-epoch replicate: got err %v, want stale-epoch rejection", err)
	}
	if resp.Epoch != 2 {
		t.Errorf("rejection reported epoch %d, want 2 (deposed node needs it to demote)", resp.Epoch)
	}
	after, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("stale-epoch replicate mutated the new primary's journal")
	}
}

// TestHAConfigKeys: slurm.conf replication keys parse, validate, and default
// to off.
func TestHAConfigKeys(t *testing.T) {
	base := "NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n"
	cfg, err := ParseConfig(strings.NewReader(base +
		"ReplicaAddr=127.0.0.1:6819\nHALeaseSeconds=2.5\nHAHeartbeatSeconds=0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HA.Replica != "127.0.0.1:6819" ||
		cfg.HA.Lease != 2500*time.Millisecond || cfg.HA.Heartbeat != 500*time.Millisecond {
		t.Errorf("HA config = %+v", cfg.HA)
	}
	cfg, err = ParseConfig(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HA != (HAConfig{}) {
		t.Errorf("HA not zero without replication keys: %+v", cfg.HA)
	}
	if _, err := ParseConfig(strings.NewReader(base +
		"HALeaseSeconds=1\nHAHeartbeatSeconds=2\n")); err == nil {
		t.Error("heartbeat longer than lease validated")
	}
}

// TestHAFailoverChaosDeterministic is the acceptance scenario: with a fixed
// seed, chaos proxies partition the primary mid-soak; the standby promotes,
// every acknowledged submit is present exactly once, the deposed primary is
// fenced, and after healing it rejoins as a resynced standby whose journal
// replays to the new primary's exact state.
func TestHAFailoverChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover soak")
	}
	const seed = 7
	lease := 250 * time.Millisecond
	a, b := startNode(t), startNode(t)

	pCli, err := chaos.Listen(a.addr, chaos.Config{Seed: seed, Name: "cli",
		DelayProb: 0.05, DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pCli.Close()
	pAB, err := chaos.Listen(b.addr, chaos.Config{Seed: seed, Name: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	defer pAB.Close()
	pBA, err := chaos.Listen(a.addr, chaos.Config{Seed: seed, Name: "ba"})
	if err != nil {
		t.Fatal(err)
	}
	defer pBA.Close()

	if err := a.ctl.StartHA(HAOptions{Peer: pAB.Addr(), Lease: lease}); err != nil {
		t.Fatal(err)
	}
	if err := b.ctl.StartHA(HAOptions{Standby: true, Peer: pBA.Addr(), Lease: lease}); err != nil {
		t.Fatal(err)
	}

	res, err := Storm{
		Addrs:     pCli.Addr() + "," + b.addr,
		Seed:      seed,
		Clients:   4,
		Submits:   4,
		Timeout:   150 * time.Millisecond,
		DisruptAt: 4,
		Disrupt: func() {
			pCli.Partition()
			pAB.Partition()
			pBA.Partition()
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Failures > 0 {
		t.Fatalf("%d submissions exhausted retries (errors: %v)", res.Failures, res.Errors)
	}
	if len(res.Acked) != 16 {
		t.Fatalf("acked %d submits, want 16", len(res.Acked))
	}
	// Idempotency across the promotion: a token acknowledged by the old
	// primary and replayed to the new one names the same job.
	if res.Resubmits == 0 || res.DuplicateIDs > 0 {
		t.Fatalf("%d of %d replayed tokens resolved to a second job ID", res.DuplicateIDs, res.Resubmits)
	}

	// Promotion: the standby must take over within one lease of noticing.
	waitFor(t, 10*lease, "standby promotion", func() bool {
		role, _ := b.ctl.RoleEpoch()
		return role == RolePrimary
	})
	if _, epoch := b.ctl.RoleEpoch(); epoch != 2 {
		t.Errorf("promoted epoch = %d, want 2", epoch)
	}

	// Zero lost acknowledged submits, each exactly once, on the survivor.
	if _, err := res.Audit(b.addr, seed); err != nil {
		t.Fatal(err)
	}

	// The deposed primary is fenced: health says so, mutations rejected.
	waitFor(t, 10*lease, "deposed primary fencing", func() bool {
		return a.ctl.Health() == HealthFenced
	})
	if _, err := a.ctl.Submit("minife", 1, 3600, 1800, "fenced"); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced primary submit: got %v, want ErrFenced", err)
	}

	// Stale-epoch appends leave the new primary's journal byte-identical.
	before, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	clB, err := Dial(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	if _, err := clB.Do(Request{Op: "replicate", Epoch: 1, Entries: []Entry{
		{Seq: 999, Epoch: 1, Op: "submit", App: "minife", Nodes: 1, Walltime: 3600, Runtime: 1800, ID: 999},
	}}); err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("stale replicate: got %v, want stale-epoch rejection", err)
	}
	after, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("stale-epoch replicate mutated the new primary's journal")
	}

	// Heal: the deposed node sees the higher epoch, demotes, full-resyncs.
	pCli.Heal()
	pAB.Heal()
	pBA.Heal()
	waitFor(t, 20*lease, "deposed primary demotion", func() bool {
		role, epoch := a.ctl.RoleEpoch()
		return role == RoleStandby && epoch == 2
	})
	waitFor(t, 20*lease, "follower resync", func() bool {
		return reflect.DeepEqual(stateOf(a.ctl), stateOf(b.ctl))
	})

	// Replay determinism: the new primary's journal alone rebuilds its
	// exact state (what a later restart would do).
	jb, err := os.ReadFile(journalFile(b.dir))
	if err != nil {
		t.Fatal(err)
	}
	d := t.TempDir()
	writeFile(t, journalFile(d), jb)
	if got, want := recoverState(t, testControllerConfig(), d), stateOf(b.ctl); !reflect.DeepEqual(got, want) {
		t.Error("replaying the survivor's journal diverges from its live state")
	}
}

// TestHAHeartbeatOutsideFencingWindowRefused: a heartbeat at or beyond the
// Lease/2 fencing threshold would fence a healthy primary between pushes
// (seen with a conf-file HAHeartbeatSeconds combined with a shorter -lease
// override). Validate and StartHA refuse it rather than rewrite it; a
// heartbeat just inside the window, or none, is accepted as given, and only
// the timeout is still kept inside the window.
func TestHAHeartbeatOutsideFencingWindowRefused(t *testing.T) {
	const lease = 800 * time.Millisecond
	for _, tc := range []struct {
		lease, heartbeat time.Duration
		ok               bool
	}{
		{lease, lease/2 - time.Nanosecond, true},
		{lease, lease / 2, false},
		{lease, 750 * time.Millisecond, false},
		{lease, lease, false},
		{lease, 0, true},
		{0, DefaultHALease/2 - time.Nanosecond, true},
		{0, DefaultHALease / 2, false},
		{lease, -time.Nanosecond, false},
	} {
		if err := (HAConfig{Lease: tc.lease, Heartbeat: tc.heartbeat}).Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(lease %s, heartbeat %s) = %v, want accepted %v", tc.lease, tc.heartbeat, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		ctl, err := NewController(testControllerConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.StartHA(HAOptions{Standby: true, Peer: "127.0.0.1:1", Lease: tc.lease, Heartbeat: tc.heartbeat}); err == nil {
			t.Errorf("StartHA(lease %s, heartbeat %s) accepted", tc.lease, tc.heartbeat)
		}
		ctl.Close()
	}
	o := HAOptions{Lease: lease, Heartbeat: lease/2 - time.Nanosecond, Timeout: 600 * time.Millisecond}
	o.defaults()
	if o.Heartbeat != lease/2-time.Nanosecond || o.Timeout >= o.Lease/2 {
		t.Errorf("pacing: heartbeat=%s (want it as given) timeout=%s (want inside lease/2 of %s)",
			o.Heartbeat, o.Timeout, o.Lease)
	}
	o = HAOptions{Lease: time.Second, Heartbeat: 100 * time.Millisecond, Timeout: 200 * time.Millisecond}
	o.defaults()
	if o != (HAOptions{Lease: time.Second, Heartbeat: 100 * time.Millisecond, Timeout: 200 * time.Millisecond}) {
		t.Errorf("valid pacing rewritten: %+v", o)
	}
	o = HAOptions{Lease: time.Second}
	o.defaults()
	if o.Heartbeat != time.Second/4 || o.Timeout != time.Second/4 {
		t.Errorf("zero pacing filled as heartbeat=%s timeout=%s, want lease/4", o.Heartbeat, o.Timeout)
	}
}

// TestHAEntriesSurviveJSONRoundTrip pins the replicate payload encoding:
// entries that cross the wire must journal byte-identically on both sides.
func TestHAEntriesSurviveJSONRoundTrip(t *testing.T) {
	e := Entry{Seq: 3, Epoch: 2, Op: "submit", App: "minife", Nodes: 2,
		Walltime: 3600, Runtime: 1800, Name: "x", ID: 4, Token: "tok"}
	raw, err := json.Marshal(Request{Op: "replicate", Epoch: 2, Entries: []Entry{e}})
	if err != nil {
		t.Fatal(err)
	}
	var rt Request
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Entries, []Entry{e}) {
		t.Errorf("entry changed across the wire: %+v vs %+v", rt.Entries[0], e)
	}
}
