package slurm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// mutatingVerbs lists the table's journaled ops, sorted.
func mutatingVerbs() []string {
	var ops []string
	for op, v := range verbs {
		if v.entry != nil {
			ops = append(ops, op)
		}
	}
	sort.Strings(ops)
	return ops
}

// applyCases parses controller.go and returns the op strings Controller.apply
// switches on, sorted — the other half of "declared once".
func applyCases(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "controller.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "apply" || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, x := range cc.List {
				lit, ok := x.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("apply: case %v is not a string literal", x)
				}
				op, _ := strconv.Unquote(lit.Value)
				ops = append(ops, op)
			}
			return true
		})
	}
	sort.Strings(ops)
	return ops
}

// TestVerbTableMatchesApply: a mutating verb is declared in exactly two
// places — the table and Controller.apply — and the two agree, so a tenth verb
// cannot be added to only one.
func TestVerbTableMatchesApply(t *testing.T) {
	want := append(mutatingVerbs(), "brownout", "epoch", "record") // journaled, but not inputs
	sort.Strings(want)
	if got := applyCases(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("Controller.apply handles %v\nverb table + bookkeeping ops are %v", got, want)
	}
}

// TestEveryVerbThroughAllThreePaths sends every mutating verb in the table
// over the wire to a journaled HA primary and, after each one, demands the
// same state from the three users of Controller.apply: the live primary, a
// controller replayed from the primary's state directory, and the standby —
// whose journal must also be byte-identical.
func TestEveryVerbThroughAllThreePaths(t *testing.T) {
	a, b := startPair(t, 2*time.Second)
	cl, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Ordered so that every request is valid when it arrives: job 1 runs on
	// two nodes, job 2 wants the whole machine and stays pending.
	script := []Request{
		{Op: "submit", App: "minife", Nodes: 2, Walltime: 3600, Runtime: 1800, Name: "runs", Token: "tok-1"},
		{Op: "submit", App: "milc", Nodes: 4, Walltime: 7200, Runtime: 3600, Name: "waits"},
		{Op: "advance", Seconds: 100},
		{Op: "cancel", ID: 2},
		{Op: "drain_node", Node: 3},
		{Op: "resume_node", Node: 3},
		{Op: "requeue", ID: 1},
		{Op: "down_node", Node: 0},
		{Op: "up_node", Node: 0},
		{Op: "submit", App: "gtc", Nodes: 1, Walltime: 3600, Runtime: 600, Name: "later", After: []int64{1}},
		{Op: "drain"},
	}
	sent := map[string]bool{}
	for i, req := range script {
		if _, err := cl.Do(req); err != nil {
			t.Fatalf("step %d (%s): %v", i, req.Op, err)
		}
		sent[req.Op] = true
		live := stateOf(a.ctl)
		if replayed := recoverState(t, testControllerConfig(), a.dir); !reflect.DeepEqual(live, replayed) {
			t.Fatalf("step %d (%s): replay diverges from the live primary\nlive     %+v\nreplayed %+v", i, req.Op, live, replayed)
		}
		if standby := stateOf(b.ctl); !reflect.DeepEqual(live, standby) {
			t.Fatalf("step %d (%s): standby diverges from the primary\nprimary %+v\nstandby %+v", i, req.Op, live, standby)
		}
		if ja, jb := readFileT(t, journalFile(a.dir)), readFileT(t, journalFile(b.dir)); string(ja) != string(jb) {
			t.Fatalf("step %d (%s): standby journal not byte-identical (%d vs %d bytes)", i, req.Op, len(ja), len(jb))
		}
	}
	for _, op := range mutatingVerbs() {
		if !sent[op] {
			t.Errorf("verb %q is in the table but not in this test's script: add a request for it", op)
		}
	}
	if h := stateOf(a.ctl).History; len(h) != 3 {
		t.Errorf("history = %+v, want the cancelled job and two finished ones", h)
	}
}

// TestClockBoundOverTheWire is the regression test for a remote crash: an
// acknowledged `advance 1e300` (or a 1e300 walltime run to completion) leaves
// the clock where float64 cannot resolve a job's runtime, so the next submit
// panics the process — again after every restart, once the entry is
// journaled. Both must be refused before the apply and before the journal.
func TestClockBoundOverTheWire(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Partition.MaxTime = 0 // no partition limit to hide behind
	dir := t.TempDir()
	ctl, err := OpenJournaled(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, req := range []Request{
		{Op: "advance", Seconds: 1e300},
		{Op: "advance", Seconds: maxClock + 1},
		{Op: "submit", App: "minife", Nodes: 1, Walltime: 1e300},
		{Op: "submit", App: "minife", Nodes: 1, Walltime: 3600, Runtime: 1e300},
	} {
		if _, err := cl.Do(req); err == nil || !strings.Contains(err.Error(), "clock") {
			t.Fatalf("%s %+v: err = %v, want a clock-bound refusal", req.Op, req, err)
		}
	}
	// The controller is neither wedged nor dead: ordinary work still runs to
	// completion, right up to the bound.
	if _, err := cl.Advance(maxClock - 10); err != nil {
		t.Fatalf("advance to just under the bound: %v", err)
	}
	if _, err := cl.Submit("minife", 1, 3600, 900.333, "late"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Advance(11); err == nil {
		t.Fatal("advance past the bound accepted")
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if h := ctl.History(); len(h) != 1 || h[0].State != "FINISHED" {
		t.Fatalf("history = %+v, want the one job finished", h)
	}
	if data := readFileT(t, journalFile(dir)); strings.Contains(string(data), "e+300") {
		t.Fatal("a refused request reached the journal")
	}
}

// TestClockBoundRefusesPoisonedLog: a log that already carries such an entry
// is refused by replay and by follower-apply with an error naming the
// entry's Seq.
func TestClockBoundRefusesPoisonedLog(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(vfs.OS{}, dir, 0, CorruptFail)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{{Seq: 1, Op: "advance", Seconds: 60}, {Seq: 2, Op: "advance", Seconds: 1e300}} {
		if err := j.append([]Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournaled(testControllerConfig(), dir, 0); err == nil || !strings.Contains(err.Error(), "entry 2 (advance)") {
		t.Fatalf("open on a poisoned journal: err = %v, want a refusal naming entry 2", err)
	}

	// A standby whose primary never calls: the test plays the primary.
	b := startNode(t)
	if err := b.ctl.StartHA(HAOptions{Standby: true, Peer: "127.0.0.1:1", Lease: time.Minute}); err != nil {
		t.Fatal(err)
	}
	resp := b.ctl.HandleReplicate(Request{Op: "replicate", Epoch: 1,
		Entries: []Entry{{Seq: 1, Op: "advance", Seconds: 60, Epoch: 1}, {Seq: 2, Op: "advance", Seconds: 1e300, Epoch: 1}}})
	if resp.OK || !strings.Contains(resp.Error, "entry 2 (advance)") || resp.Seq != 1 {
		t.Fatalf("follower-apply of a poisoned entry: %+v, want a refusal naming entry 2 after applying entry 1", resp)
	}
	if strings.Contains(string(readFileT(t, journalFile(b.dir))), "e+300") {
		t.Fatal("follower journaled the refused entry")
	}
}
