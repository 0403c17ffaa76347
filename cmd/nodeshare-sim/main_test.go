package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/cmd/internal/flagtable"
	"repro/internal/cluster"
	"repro/internal/swf"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with current output")

// passMean is the one wall-clock number in a report.
var passMean = regexp.MustCompile(`scheduler pass mean: +[0-9.]+µs`)

// TestGolden runs the command over flag sets that reach every way it builds
// and drives its engine — synthetic, topology, measured co-run pairs, faults,
// SWF replay, trace, horizon, Gantt and the accounting file — and compares
// the output with testdata/golden.txt. Never regenerate it to make an engine
// change pass.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	corunCSV := filepath.Join(dir, "corun.csv")
	traceSWF := filepath.Join(dir, "trace.swf")
	acctFile := filepath.Join(dir, "run.acct")

	machine := cluster.Trinity(16)
	jobs, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: 40, Arrival: workload.Poisson, Load: 1.2,
		Cluster: machine, RuntimeScale: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if err := swf.Write(&tr, swf.FromJobs(jobs, machine)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traceSWF, tr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	runCase := func(args ...string) {
		t.Helper()
		fmt.Fprintf(&out, "$ nodeshare-sim %s\n", strings.ReplaceAll(strings.Join(args, " "), dir, "$TMP"))
		var b bytes.Buffer
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out.Write(passMean.ReplaceAll(b.Bytes(), []byte("scheduler pass mean: <wall-clock>")))
	}

	runCase("-corun-template")
	var tmpl bytes.Buffer
	if err := run([]string{"-corun-template"}, &tmpl); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corunCSV, tmpl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	runCase("-jobs", "60", "-nodes", "16")
	runCase("-jobs", "60", "-nodes", "16", "-policy", "easy", "-arrival", "batch")
	runCase("-jobs", "60", "-nodes", "16", "-arrival", "dailycycle", "-load", "0.9", "-seed", "3")
	runCase("-jobs", "60", "-nodes", "16", "-topo")
	runCase("-jobs", "60", "-nodes", "16", "-corun", corunCSV)
	runCase("-jobs", "60", "-nodes", "16", "-topo", "-mtbf", "20000", "-crashprob", "0.02")
	runCase("-jobs", "60", "-nodes", "16", "-policy", "shareconservative", "-mtbf", "5000", "-mttr", "600",
		"-fault-shape", "0.7", "-max-retries", "1", "-backoff", "10", "-fault-seed", "4")
	runCase("-nodes", "16", "-swf", traceSWF, "-policy", "conservative")
	runCase("-jobs", "6", "-nodes", "4", "-trace")
	runCase("-jobs", "60", "-nodes", "16", "-horizon", "3600")
	runCase("-jobs", "30", "-nodes", "8", "-gantt", "-acct", acctFile)
	acct, err := os.ReadFile(acctFile)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "$ cat $TMP/run.acct\n%s", acct)

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("nodeshare-sim output diverged from %s:\n--- got ---\n%s", golden, out.Bytes())
	}
}

// A zero scale used to run unscaled (a 12-day makespan instead of 15 h), a
// negative horizon to run to completion and an infinite one to print a NaN
// utilization; a scale of 1e-320 panicked in the arrival process, a NaN
// failure rate ran with no faults, a zero fault shape ran as exponential, and
// a negative retry budget meant none; a fault shape of 0.001 panicked on a
// zero Weibull scale, and a backoff of 1e300 printed a garbage makespan. Each
// is refused before any run, by the type that owns the value (the horizon, a
// run argument, by the command).
func TestRefusesBadScaleAndHorizon(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-scale", "+Inf"}, {"-scale", "1e-320"},
		{"-horizon", "-1"}, {"-horizon", "NaN"}, {"-horizon", "+Inf"},
		{"-mtbf", "NaN"}, {"-crashprob", "NaN"}, {"-max-retries", "-1"}, {"-backoff", "NaN"},
		{"-mtbf", "100000", "-fault-shape", "0"}, {"-mtbf", "100000", "-fault-shape", "+Inf"},
		{"-mtbf", "100000", "-mttr", "+Inf"},
		{"-mtbf", "100000", "-fault-shape", "0.001"}, // a zero Weibull scale: it panicked
		{"-crashprob", "0.5", "-backoff", "1e308"},   // it printed a garbage makespan and exited 0
		{"-crashprob", "0.5", "-backoff", "1e300"},
	} {
		var out bytes.Buffer
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v panicked: %v", args, r)
				}
			}()
			return run(append([]string{"-jobs", "5", "-nodes", "4"}, args...), &out)
		}()
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed before refusing:\n%s", args, out.Bytes())
		}
	}
}

// Zero retries, zero backoff and fault seed 0 mean what they say: each used
// to run as the default (3, 30 s and seed 1) and print the same report.
func TestZeroFaultSettingsAreNotDefaults(t *testing.T) {
	report := func(args ...string) string {
		t.Helper()
		var b bytes.Buffer
		base := []string{"-jobs", "40", "-nodes", "8", "-mtbf", "20000", "-crashprob", "0.2"}
		if err := run(append(base, args...), &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return passMean.ReplaceAllString(b.String(), "")
	}
	for _, pair := range [][2]string{{"-max-retries", "3"}, {"-backoff", "30"}, {"-fault-seed", "1"}} {
		if report(pair[0], "0") == report(pair[0], pair[1]) {
			t.Errorf("%s 0 prints the same report as the default %s", pair[0], pair[1])
		}
	}
}

// A load that is not a positive finite number at most 1e9 is refused by the
// workload's own check before any run: an infinite one, or 1e308, used to
// panic in the arrival process, NaN to run and print a NaN report.
func TestRefusesNonFiniteLoad(t *testing.T) {
	for _, load := range []string{"inf", "+Inf", "-inf", "nan", "NaN", "0", "1e308"} {
		var out bytes.Buffer
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("-load %s panicked: %v", load, r)
				}
			}()
			return run([]string{"-jobs", "5", "-nodes", "4", "-load", load}, &out)
		}()
		if err == nil {
			t.Errorf("-load %s accepted", load)
		}
		if out.Len() != 0 {
			t.Errorf("-load %s printed before refusing:\n%s", load, out.Bytes())
		}
	}
}

// A trace job whose submit time is not a number, or whose runtime is
// infinite, is refused by the job's own check: the first used to run and
// print a garbage wait, the second to finish one job of two and exit 0.
func TestRefusesNonFiniteSWFTimes(t *testing.T) {
	for name, trace := range map[string]string{
		"nan submit":  "1 NaN 0 100 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n2 10 0 100 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n",
		"inf runtime": "1 0 0 Inf 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n2 10 0 100 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n",
		"inf request": "1 0 0 100 32 -1 -1 32 Inf -1 1 1 1 1 1 1 -1 -1\n",
		"inf submit":  "1 +Inf 0 100 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n",
		"nan runtime": "1 0 0 NaN 32 -1 -1 32 200 -1 1 1 1 1 1 1 -1 -1\n",
	} {
		path := filepath.Join(t.TempDir(), "t.swf")
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-swf", path, "-nodes", "8"}, &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before refusing:\n%s", name, out.Bytes())
		}
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable): every
// numeric flag with 0, −1, NaN, +Inf and 1e308.
func TestNumericFlags(t *testing.T) {
	ok, no := true, false
	flagtable.Check(t, run, []string{"-jobs", "5", "-nodes", "4", "-mtbf", "100000", "-crashprob", "0.1"}, nil, map[string][5]bool{
		// The outcomes for 0, −1, NaN, +Inf and 1e308.
		"nodes":       {no, no, no, no, no},
		"jobs":        {no, no, no, no, no},
		"load":        {no, no, no, no, no},
		"scale":       {no, no, no, no, no},
		"seed":        {ok, no, no, no, no},
		"horizon":     {ok, no, no, no, ok}, // 0 runs to completion, and so does a horizon past the end
		"mtbf":        {ok, no, no, ok, ok}, // 0 and +Inf turn node failures off (fault.Config); 1e308 is a rate
		"mttr":        {no, no, no, no, no}, // node failures are on, and 1e308 is past fault.MaxDelay
		"fault-shape": {no, no, no, no, ok}, // 1e308: every node fails at exactly the MTBF
		"crashprob":   {ok, no, no, no, no}, // 0: jobs never crash
		"max-retries": {ok, no, no, no, no}, // 0: no retries
		"backoff":     {ok, no, no, no, no}, // 0: no hold
		"fault-seed":  {ok, no, no, no, no},
	})
}
