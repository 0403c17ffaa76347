package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runShort runs the command in-process at toy size and returns its exit code,
// its parsed last line and everything it printed.
func runShort(t *testing.T, args ...string) (int, output, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"-short", "-seconds", "0.3"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil && code == 0 {
		t.Fatalf("last line is not the result object: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return code, out, stdout.String() + stderr.String()
}

// BENCHMARK.json must stay inside the limits of the driver's contract.
func TestManifestMeetsContract(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(m.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(m.Workloads))
	}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	i := slices.IndexFunc(m.EndToEnd, func(d metricDecl) bool { return d.Name == "setup_s" })
	if i < 0 || m.EndToEnd[i].Unit != "s" || m.EndToEnd[i].Better != "lower" {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}

// Every workload, at toy size, prints every declared metric of the run's kind
// and no other, with finite values; an end-to-end value is never zero.
func TestEveryWorkloadPrintsEveryDeclaredMetric(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				code, out, printed := runShort(t, "-workload", w.Name, "-trace", trace)
				if code != 0 || !out.Correct {
					t.Fatalf("exit %d, correct=%v\n%s", code, out.Correct, printed)
				}
				if out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("attempted %d, failed %d", out.Attempted, out.Failed)
				}
				decls := m.EndToEnd
				if trace == "1" {
					decls = m.PerLayer
				}
				if len(out.Metrics) != len(decls) {
					t.Errorf("%d metrics printed, %d declared", len(out.Metrics), len(decls))
				}
				for _, d := range decls {
					got, ok := out.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is declared but not printed", d.Name)
					case got.Unit != d.Unit:
						t.Errorf("metric %s printed in %q, declared in %q", d.Name, got.Unit, d.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", d.Name, got.Value)
					case trace == "0" && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
			})
		}
	}
}

// The policy decorator must not change the simulation, and must show the
// engine its inner policy's ShareConfig().
func TestPolicyDecoratorLeavesDigestUnchanged(t *testing.T) {
	cfg := &runConfig{seed: 42, short: true}
	inst := newSimInstance(simLoad{policy: "sharebackfill", load: 1.4, jobs: 200}, cfg)
	plain, err := inst.rep(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := inst.rep(newTracer("test"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != plain.digest {
		t.Errorf("decorated run's digest %s differs from the plain run's %s", traced.digest, plain.digest)
	}
	if n := len(traced.passes.durs); n == 0 || traced.passes.decisions != 200 {
		t.Errorf("decorator saw %d passes and %d decisions for 200 jobs", n, traced.passes.decisions)
	}
	if traced.hidesShare {
		t.Error("the decorator hides ShareConfig() from the engine")
	}
	cfg.inject = "hide-shareconfig"
	hidden, err := inst.rep(newTracer("test"), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hidden.hidesShare {
		t.Error("a decorator that hides ShareConfig() was not noticed")
	}
}

// Each correctness check bites: a deliberately broken run exits non-zero and
// says why.
func TestCorrectnessChecksBite(t *testing.T) {
	for _, c := range []struct {
		inject string
		args   []string
		want   string
	}{
		{"hide-shareconfig", []string{"-workload", "sim_share_deep", "-trace", "1"}, "ShareConfig"},
		{"corrupt-csv", []string{"-workload", "sweep_mixed"}, "CSV"},
		{"drop-ack", []string{"-workload", "ctl_submit_ha"}, "lists"},
	} {
		t.Run(c.inject+"/"+c.args[1], func(t *testing.T) {
			code, out, printed := runShort(t, append(c.args, "-inject", c.inject)...)
			if code == 0 || out.Correct {
				t.Fatalf("exit %d, correct=%v: the broken run passed\n%s", code, out.Correct, printed)
			}
			if !strings.Contains(printed, "INCORRECT:") || !strings.Contains(printed, c.want) {
				t.Errorf("the run does not say what was wrong (want a line about %q):\n%s", c.want, printed)
			}
		})
	}
}

// The coordinated-omission case: one stall of a server that otherwise takes
// 5 ms must show in the latency of every operation that came due during it,
// because each is timed from its due instant, not from when it was sent.
func TestOpenLoopChargesAStallToTheOpsBehindIt(t *testing.T) {
	const (
		service = 5 * time.Millisecond
		stall   = 150 * time.Millisecond
		gap     = 10 * time.Millisecond // 100 ops/s against a 200 ops/s server
		stalled = 10
	)
	var ops []dueOp
	for i := 0; i < 40; i++ {
		ops = append(ops, dueOp{due: time.Duration(i) * gap, kind: "op", arg: i})
	}
	out := runOpenLoop(ops, 600*time.Millisecond, 1, func(conn int, op dueOp) error {
		if op.arg.(int) == stalled {
			time.Sleep(stall)
		} else {
			time.Sleep(service)
		}
		return nil
	})
	if out.dropped != 0 || len(out.samples) != len(ops) {
		t.Fatalf("%d of %d operations ran, %d dropped: the generator must queue, not drop, mid-step", len(out.samples), len(ops), out.dropped)
	}
	// About stall/gap = 15 operations came due while the server was stalled;
	// sent-time accounting would charge the stall to one of them.
	slow := 0
	for _, s := range out.samples {
		if s.latency > 10*service {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("%d operations saw the %v stall; the ones queued behind it are not being charged", slow, stall)
	}
	for _, l := range out.late {
		if l > 50*time.Millisecond {
			t.Errorf("generator released an operation %v late: it waited for the server", l)
		}
	}
}

// What is not started when a step ends is dropped and counted, never silently
// lost and never run late.
func TestOpenLoopDropsOnlyAtStepEnd(t *testing.T) {
	var ops []dueOp
	for i := 0; i < 20; i++ {
		ops = append(ops, dueOp{due: time.Duration(i) * time.Millisecond, kind: "op"})
	}
	out := runOpenLoop(ops, 60*time.Millisecond, 1, func(int, dueOp) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if len(out.samples)+out.dropped != len(ops) {
		t.Errorf("%d ran + %d dropped ≠ %d scheduled", len(out.samples), out.dropped, len(ops))
	}
	if out.dropped == 0 || len(out.samples) == 0 {
		t.Errorf("%d ran, %d dropped: a 10 ms server cannot finish 20 operations in 60 ms, and must finish some", len(out.samples), out.dropped)
	}
}

// Self time is a span's duration minus the union of its children's intervals.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer("test")
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add(1, 0, 1, "rep", at(0), at(100), nil)
	tr.add(2, 1, 1, "a", at(10), at(60), nil)
	tr.add(3, 1, 1, "a", at(40), at(90), nil) // overlaps the first: a parallel pool
	tr.add(4, 2, 1, "b", at(20), at(30), nil)
	self, coverage := tr.selfTimes()
	for name, want := range map[string]float64{"rep": 0.020, "a": 0.090, "b": 0.010} {
		if got := self[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %v s, want %v s", name, got, want)
		}
	}
	if len(coverage) != 1 || math.Abs(coverage[0]-0.8) > 1e-9 {
		t.Errorf("coverage = %v, want [0.8]", coverage)
	}
}
