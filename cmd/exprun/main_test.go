package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// testOpts shrinks the experiments so the full test grid runs in about a
// second while still driving every policy through the scheduler.
func testOpts() exp.Options {
	return exp.Options{Seeds: []uint64{42, 43}, Nodes: 32, Jobs: 80, RuntimeScale: 0.02, FaultCrashProb: 0.02}
}

func runToBytes(t *testing.T, ids []string, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(ids, testOpts(), workers, "", &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialWorkers: the rendered tables must be byte-identical for
// any worker count — experiments are pure and are emitted in registry
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
			got := runToBytes(t, tc.ids, 4)
			golden := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("exprun output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"F1", "ZZ"}, testOpts(), 1, "", &buf); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("output written despite unknown ID:\n%s", buf.Bytes())
	}
}

// Out-of-range flags are refused before any experiment runs; zero must not
// fall through to exp.Options' defaults.
func TestOptionsRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name                    string
		seeds, nodes, jobs      int
		scale, mttr, shape, crp float64
	}{
		{"zero seeds", 0, 32, 300, 0.05, 900, 1, 0.02},
		{"zero nodes", 3, 0, 300, 0.05, 900, 1, 0.02},
		{"negative nodes", 3, -4, 300, 0.05, 900, 1, 0.02},
		{"zero jobs", 3, 32, 0, 0.05, 900, 1, 0.02},
		{"negative jobs", 3, 32, -1, 0.05, 900, 1, 0.02},
		{"zero scale", 3, 32, 300, 0, 900, 1, 0.02},
		{"negative scale", 3, 32, 300, -0.5, 900, 1, 0.02},
		{"NaN scale", 3, 32, 300, math.NaN(), 900, 1, 0.02},
		{"infinite scale", 3, 32, 300, math.Inf(1), 900, 1, 0.02},
		{"zero MTTR", 3, 32, 300, 0.05, 0, 1, 0.02},
		{"infinite MTTR", 3, 32, 300, 0.05, math.Inf(1), 1, 0.02},
		{"negative shape", 3, 32, 300, 0.05, 900, -1, 0.02},
		{"zero shape", 3, 32, 300, 0.05, 900, 0, 0.02},
		{"infinite shape", 3, 32, 300, 0.05, 900, math.Inf(1), 0.02},
		{"crash prob above 1", 3, 32, 300, 0.05, 900, 1, 1.5},
		{"NaN crash prob", 3, 32, 300, 0.05, 900, 1, math.NaN()},
	}
	for _, tc := range cases {
		if _, err := options(tc.seeds, tc.nodes, tc.jobs, tc.scale, tc.mttr, tc.shape, tc.crp); err == nil {
			t.Errorf("%s: options accepted it", tc.name)
		}
	}
	o, err := options(2, 8, 60, 0.01, 900, 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Seeds) != 2 || o.Seeds[0] != 42 || o.Seeds[1] != 43 || o.Nodes != 8 || o.Jobs != 60 {
		t.Fatalf("options = %+v", o)
	}
}

// A zero -fault-crashprob means no crashes: it survives options and the
// experiment defaults, and F12 runs and reports it as zero.
func TestZeroCrashProbStaysZero(t *testing.T) {
	o, err := options(1, 8, 40, 0.01, 900, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.FaultCrashProb != 0 {
		t.Fatalf("options turned crash prob 0 into %g", o.FaultCrashProb)
	}
	var buf bytes.Buffer
	if err := run([]string{"F12"}, o, 1, "", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crash prob 0/attempt") {
		t.Fatalf("F12 does not report crash prob 0:\n%s", buf.String())
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"T1"}, testOpts(), 2, dir, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "T1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty T1.csv")
	}
}
