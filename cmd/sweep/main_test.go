package main

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// gridConfig is the test grid: small enough to run in well under a second,
// rich enough to exercise every sharing policy and two load regimes.
func gridConfig(t *testing.T, workers int) config {
	t.Helper()
	cfg, err := validate("easy,sharefirstfit,sharebackfill", "0.9,1.4",
		2, 32, 150, "trinity", 0.05, workers)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runToBytes(t *testing.T, cfg config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialWorkers is the determinism contract of the parallel sweep:
// the same grid must produce byte-identical CSV for every worker count,
// because rows are reassembled in grid order and each cell is a pure
// function of its seed.
func TestDifferentialWorkers(t *testing.T) {
	sequential := runToBytes(t, gridConfig(t, 1))
	for _, workers := range []int{2, 4, 16} {
		par := runToBytes(t, gridConfig(t, workers))
		if !bytes.Equal(sequential, par) {
			t.Fatalf("workers=%d output differs from sequential run:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, sequential, workers, par)
		}
	}
}

// TestGoldenCSV pins the sweep output for a fixed grid. The golden file was
// generated before the scheduler's free-capacity index landed; a diff here
// means scheduler decisions (not just performance) changed.
func TestGoldenCSV(t *testing.T) {
	got := runToBytes(t, gridConfig(t, 4))
	golden := filepath.Join("testdata", "sweep_golden.csv")
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
		t.Fatalf("missing golden file (regenerate with go test -run TestGoldenCSV -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestGridHammerRace floods the worker pool with many small cells; run
// under -race it checks the full CLI path (cells → reassembly → CSV writer)
// for data races.
func TestGridHammerRace(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid; skipped in -short")
	}
	cfg, err := validate("easy,sharefirstfit,sharebackfill", "0.6,1.0,1.4",
		4, 16, 40, "trinity", 0.02, 16)
	if err != nil {
		t.Fatal(err)
	}
	seq := cfg
	seq.workers = 1
	if !bytes.Equal(runToBytes(t, cfg), runToBytes(t, seq)) {
		t.Fatal("hammer grid output differs between 16 workers and sequential")
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name               string
		policies, loads    string
		seeds, nodes, jobs int
		mix                string
		scale              float64
	}{
		{"trailing comma in policies", "easy,", "1.0", 1, 8, 10, "trinity", 0.05},
		{"duplicate comma in policies", "easy,,sharebackfill", "1.0", 1, 8, 10, "trinity", 0.05},
		{"unknown policy", "easy,notapolicy", "1.0", 1, 8, 10, "trinity", 0.05},
		{"trailing comma in loads", "easy", "0.9,1.4,", 1, 8, 10, "trinity", 0.05},
		{"duplicate comma in loads", "easy", "0.9,,1.4", 1, 8, 10, "trinity", 0.05},
		{"empty loads", "easy", "", 1, 8, 10, "trinity", 0.05},
		{"non-numeric load", "easy", "fast", 1, 8, 10, "trinity", 0.05},
		{"negative load", "easy", "-0.5", 1, 8, 10, "trinity", 0.05},
		{"NaN load", "easy", "NaN", 1, 8, 10, "trinity", 0.05},
		{"zero seeds", "easy", "1.0", 0, 8, 10, "trinity", 0.05},
		{"negative seeds", "easy", "1.0", -2, 8, 10, "trinity", 0.05},
		{"zero nodes", "easy", "1.0", 1, 0, 10, "trinity", 0.05},
		{"zero jobs", "easy", "1.0", 1, 8, 0, "trinity", 0.05},
		{"bad mix", "easy", "1.0", 1, 8, 10, "nosuchmix", 0.05},
		{"zero scale", "easy", "1.0", 1, 8, 10, "trinity", 0},
		{"infinite scale", "easy", "1.0", 1, 8, 10, "trinity", math.Inf(1)},
		{"tiny scale", "easy", "1.0", 1, 8, 10, "trinity", 1e-320},
		{"policy not in registry", "easy,slurm", "1.0", 1, 8, 10, "trinity", 0.05},
		{"zero load", "easy", "0", 1, 8, 10, "trinity", 0.05},
		{"-Inf load", "easy", "-Inf", 1, 8, 10, "trinity", 0.05},
		{"+Inf load", "easy", "+Inf", 1, 8, 10, "trinity", 0.05},
		{"load above 1e9", "easy", "1e300", 1, 8, 10, "trinity", 0.05},
		{"huge load", "easy", "1e308", 1, 8, 10, "trinity", 0.05},
		{"malformed load", "easy", "0x", 1, 8, 10, "trinity", 0.05},
		{"one bad load of two", "easy", "1.0,oops", 1, 8, 10, "trinity", 0.05},
	}
	for _, tc := range cases {
		if _, err := validate(tc.policies, tc.loads, tc.seeds, tc.nodes, tc.jobs,
			tc.mix, tc.scale, 0); err == nil {
			t.Errorf("%s: validate accepted it", tc.name)
		}
	}
}

// TestInfiniteScaleWritesNothing runs the command itself (this test binary,
// re-executed as main) with -scale inf: it must exit 1 with the reason on
// stderr before the CSV header reaches stdout.
func TestInfiniteScaleWritesNothing(t *testing.T) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		os.Args = []string{"sweep", "-policies", "easy", "-loads", "1", "-seeds", "1",
			"-nodes", "8", "-jobs", "20", "-scale", "inf"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInfiniteScaleWritesNothing$")
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1; stderr %q", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout = %q, want nothing", stdout.String())
	}
	if !strings.Contains(stderr.String(), "scale must be positive and finite") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestValidateAcceptsSpaces(t *testing.T) {
	if _, err := validate(strings.Join(sched.Names(), ","), "0.6,1e9", 1, 8, 10, "trinity", 0.05, 0); err != nil {
		t.Fatalf("every registry policy and the load bound: %v", err)
	}
	cfg, err := validate(" easy , sharebackfill ", " 0.9 , 1.4 ", 1, 8, 10, "trinity", 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.policies) != 2 || cfg.policies[0] != "easy" || cfg.policies[1] != "sharebackfill" {
		t.Fatalf("policies = %v", cfg.policies)
	}
	if len(cfg.loads) != 2 || cfg.loads[0] != 0.9 || cfg.loads[1] != 1.4 {
		t.Fatalf("loads = %v", cfg.loads)
	}
}

// failAfterWriter errors once it has accepted n bytes, standing in for a
// full disk mid-grid.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestRunReportsWriterError(t *testing.T) {
	cfg, err := validate("easy", "1.0", 1, 8, 20, "trinity", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, &failAfterWriter{n: 10}); err == nil {
		t.Fatal("run succeeded despite a failing writer")
	}
}
