package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/cmd/internal/flagtable"
	"repro/internal/exp"
	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// runToBytes runs exprun on ids with the experiments shrunk so the full test
// grid runs in about a second while still driving every policy through the
// scheduler: seeds 42 and 43, 32 nodes, 80 jobs, runtime scale 0.02.
func runToBytes(t *testing.T, ids []string, workers int, flags ...string) []byte {
	t.Helper()
	args := append([]string{"-seeds", "2", "-nodes", "32", "-jobs", "80", "-scale", "0.02",
		"-workers", strconv.Itoa(workers)}, flags...)
	var buf bytes.Buffer
	if err := run(append(args, ids...), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialWorkers: the rendered tables must be byte-identical for
// any worker count — one worker runs each experiment's simulations one after
// another, more run them in parallel, and results are gathered in index
// order, never completion order.
func TestDifferentialWorkers(t *testing.T) {
	ids := []string{"F1", "F2", "T3"}
	sequential := runToBytes(t, ids, 1)
	for _, workers := range []int{2, 8} {
		if par := runToBytes(t, ids, workers); !bytes.Equal(sequential, par) {
			t.Fatalf("workers=%d output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, sequential, workers, par)
		}
	}
}

// TestGoldenTables pins exprun's rendered output for fixed seeds. A diff
// here means simulation results changed, not just speed.
//   - exprun_golden.txt (F1, T3) was generated before the scheduler's
//     free-capacity index landed.
//   - exprun_all_golden.txt (every experiment but F3, whose table is
//     wall-clock timing) was generated before experiments and sweep cells
//     shared one scenario runner.
func TestGoldenTables(t *testing.T) {
	var allButF3 []string
	for _, id := range exp.IDs() {
		if id != "F3" {
			allButF3 = append(allButF3, id)
		}
	}
	for _, tc := range []struct {
		file string
		ids  []string
	}{
		{"exprun_golden.txt", []string{"F1", "T3"}},
		{"exprun_all_golden.txt", allButF3},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden.Check(t, filepath.Join("testdata", tc.file), runToBytes(t, tc.ids, 4), *update)
		})
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seeds", "1", "-jobs", "20", "F1", "ZZ"}, &buf); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("output written despite unknown ID:\n%s", buf.Bytes())
	}
}

// Out-of-range flags are refused before any experiment runs, with nothing
// written; zero must not fall through to exp.Options' defaults.
func TestOptionsRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "0"}, {"-seeds", "1001"},
		{"-seeds", "1000000000000"}, // it built a seed list of that length first
		{"-nodes", "0"}, {"-nodes", "-4"},
		{"-jobs", "0"}, {"-jobs", "-1"},
		{"-scale", "0"}, {"-scale", "-0.5"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
		{"-fault-mttr", "0"}, {"-fault-mttr", "+Inf"},
		{"-fault-shape", "-1"}, {"-fault-shape", "0"}, {"-fault-shape", "+Inf"},
		{"-fault-shape", "0.001"}, // Γ(1001) overflows: it panicked in F12's first failure draw
		{"-fault-crashprob", "1.5"}, {"-fault-crashprob", "NaN"},
		{"-workers", "-1"}, // it ran on all cores
		{"-csv"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "F12"), &out); err == nil {
			t.Errorf("%v accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed before refusing:\n%s", args, out.Bytes())
		}
	}
}

// A zero -fault-crashprob means no crashes: it survives the options and the
// experiment defaults, and F12 runs and reports it as zero.
func TestZeroCrashProbStaysZero(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-seeds", "1", "-nodes", "8", "-jobs", "40", "-scale", "0.01", "-fault-crashprob", "0", "-workers", "1", "F12"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crash prob 0/attempt") {
		t.Fatalf("F12 does not report crash prob 0:\n%s", buf.String())
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	runToBytes(t, []string{"T1"}, 2, "-csv", "-out", dir)
	data, err := os.ReadFile(filepath.Join(dir, "T1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty T1.csv")
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable): every
// numeric flag with 0, −1, NaN, +Inf and 1e308.
func TestNumericFlags(t *testing.T) {
	ok, no := true, false
	flagtable.Check(t, run, []string{"-seeds", "1", "-jobs", "5", "-nodes", "4"}, []string{"F12"}, map[string][5]bool{
		// The outcomes for 0, −1, NaN, +Inf and 1e308.
		"seeds":           {no, no, no, no, no},
		"nodes":           {no, no, no, no, no},
		"jobs":            {no, no, no, no, no},
		"scale":           {no, no, no, no, no},
		"fault-mttr":      {no, no, no, no, no},
		"fault-shape":     {no, no, no, no, ok}, // 1e308: every node fails at exactly the MTBF
		"fault-crashprob": {ok, no, no, no, no}, // 0: jobs never crash
		"workers":         {ok, no, no, no, no}, // 0: all cores
	})
}
