package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/cmd/internal/flagtable"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// gridSpec is the test grid: small enough to run in well under a second,
// rich enough to exercise every sharing policy and two load regimes.
func gridSpec() sweepgrid.Spec {
	return sweepgrid.Spec{
		Policies: []string{"easy", "sharefirstfit", "sharebackfill"}, Loads: []float64{0.9, 1.4},
		Seeds: 2, Nodes: 32, Jobs: 150, Mix: "trinity", Scale: 0.05,
	}
}

// specArgs renders a grid as sweep's flags.
func specArgs(s sweepgrid.Spec, workers int) []string {
	loads := make([]string, len(s.Loads))
	for i, l := range s.Loads {
		loads[i] = strconv.FormatFloat(l, 'g', -1, 64)
	}
	return []string{
		"-policies", strings.Join(s.Policies, ","), "-loads", strings.Join(loads, ","),
		"-seeds", strconv.Itoa(s.Seeds), "-nodes", strconv.Itoa(s.Nodes), "-jobs", strconv.Itoa(s.Jobs),
		"-mix", s.Mix, "-scale", strconv.FormatFloat(s.Scale, 'g', -1, 64), "-workers", strconv.Itoa(workers),
	}
}

// runToBytes runs sweep in-process on the grid's flags.
func runToBytes(t *testing.T, s sweepgrid.Spec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(specArgs(s, workers), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialWorkers is the determinism contract of the parallel sweep:
// the same grid must produce byte-identical CSV for every worker count,
// because rows are reassembled in grid order and each cell is a pure
// function of its seed.
func TestDifferentialWorkers(t *testing.T) {
	sequential := runToBytes(t, gridSpec(), 1)
	for _, workers := range []int{2, 4, 16} {
		par := runToBytes(t, gridSpec(), workers)
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
	got := runToBytes(t, gridSpec(), 4)
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
	s := sweepgrid.Spec{
		Policies: []string{"easy", "sharefirstfit", "sharebackfill"}, Loads: []float64{0.6, 1.0, 1.4},
		Seeds: 4, Nodes: 16, Jobs: 40, Mix: "trinity", Scale: 0.02,
	}
	if !bytes.Equal(runToBytes(t, s, 16), runToBytes(t, s, 1)) {
		t.Fatal("hammer grid output differs between 16 workers and sequential")
	}
}

// Every bad grid or run argument is refused before the CSV header is
// written.
func TestValidateRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"trailing comma in policies", []string{"-policies", "easy,"}},
		{"duplicate comma in policies", []string{"-policies", "easy,,sharebackfill"}},
		{"unknown policy", []string{"-policies", "easy,notapolicy"}},
		{"trailing comma in loads", []string{"-loads", "0.9,1.4,"}},
		{"duplicate comma in loads", []string{"-loads", "0.9,,1.4"}},
		{"empty loads", []string{"-loads", ""}},
		{"non-numeric load", []string{"-loads", "fast"}},
		{"negative load", []string{"-loads", "-0.5"}},
		{"NaN load", []string{"-loads", "NaN"}},
		{"zero seeds", []string{"-seeds", "0"}},
		{"negative seeds", []string{"-seeds", "-2"}},
		{"zero nodes", []string{"-nodes", "0"}},
		{"zero jobs", []string{"-jobs", "0"}},
		{"bad mix", []string{"-mix", "nosuchmix"}},
		{"zero scale", []string{"-scale", "0"}},
		{"infinite scale", []string{"-scale", "+Inf"}},
		{"tiny scale", []string{"-scale", "1e-320"}},
		{"policy not in registry", []string{"-policies", "easy,slurm"}},
		{"zero load", []string{"-loads", "0"}},
		{"-Inf load", []string{"-loads", "-Inf"}},
		{"+Inf load", []string{"-loads", "+Inf"}},
		{"load above 1e9", []string{"-loads", "1e300"}},
		{"huge load", []string{"-loads", "1e308"}},
		{"malformed load", []string{"-loads", "0x"}},
		{"one bad load of two", []string{"-loads", "1.0,oops"}},
		{"negative workers", []string{"-workers", "-1"}}, // it ran on all cores
		{"journal without dispatch", []string{"-journal", "grid.journal"}},
	} {
		args := append([]string{"-policies", "easy", "-loads", "1.0", "-seeds", "1", "-nodes", "8", "-jobs", "10"}, tc.args...)
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%s: run accepted it", tc.name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote before refusing:\n%s", tc.name, out.Bytes())
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

// Every registry policy and the load bound run, and spaces around list
// entries are trimmed: the grid is byte-for-byte the unspaced one.
func TestValidateAcceptsSpaces(t *testing.T) {
	s := sweepgrid.Spec{Policies: sched.Names(), Loads: []float64{0.6, 1e9}, Seeds: 1, Nodes: 8, Jobs: 10, Mix: "trinity", Scale: 0.05}
	runToBytes(t, s, 0)
	s.Policies, s.Loads = []string{"easy", "sharebackfill"}, []float64{0.9, 1.4}
	want := runToBytes(t, s, 1)
	args := specArgs(s, 1)
	args[1], args[3] = " easy , sharebackfill ", " 0.9 , 1.4 "
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("spaced lists ran another grid:\n%s\nwant:\n%s", got.Bytes(), want)
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
	args := []string{"-policies", "easy", "-loads", "1.0", "-seeds", "1", "-nodes", "8", "-jobs", "20", "-scale", "0.02", "-workers", "1"}
	if err := run(args, &failAfterWriter{n: 10}); err == nil {
		t.Fatal("run succeeded despite a failing writer")
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable): every
// numeric flag with 0, −1, NaN, +Inf and 1e308.
func TestNumericFlags(t *testing.T) {
	ok, no := true, false
	flagtable.Check(t, run, []string{"-policies", "easy", "-loads", "1", "-seeds", "1", "-jobs", "5", "-nodes", "4"}, nil, map[string][5]bool{
		// The outcomes for 0, −1, NaN, +Inf and 1e308.
		"seeds":         {no, no, no, no, no},
		"nodes":         {no, no, no, no, no},
		"jobs":          {no, no, no, no, no},
		"scale":         {no, no, no, no, no},
		"workers":       {ok, no, no, no, no}, // 0: all cores
		"verify-sample": {ok, no, no, no, no}, // 0: no verification
		"verify-seed":   {ok, no, no, no, no},
		"poison-after":  {ok, no, no, no, no}, // 0: the fabric default
	})
}
