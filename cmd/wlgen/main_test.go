package main

import (
	"bytes"
	"os"
	"testing"

	"repro/cmd/internal/flagtable"
)

// A generated trace is byte-for-byte the recorded one (testdata/golden.swf,
// written by wlgen -jobs 5 -seed 3 before it was given a testable entry
// point; never regenerate it to make a change pass).
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-jobs", "5", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden.swf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("wlgen output diverged from testdata/golden.swf:\n%s", out.Bytes())
	}
}

// A scale or load that is not a positive finite number, a load above 1e9, a
// scale that leaves no demand to calibrate against, and an empty workload are
// refused before anything is written: -scale 0 used to run unscaled, a NaN
// load to write NaN submit times, an infinite scale infinite runtimes, and a
// load of 1e308 or a scale of 1e-320 to panic in the arrival process.
func TestRefusesBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
		{"-load", "inf"}, {"-load", "nan"}, {"-load", "1e308"}, {"-scale", "1e-320"},
		{"-jobs", "0"},
	} {
		var out bytes.Buffer
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v panicked: %v", args, r)
				}
			}()
			return run(append([]string{"-jobs", "3"}, args...), &out)
		}()
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote before refusing:\n%s", args, out.Bytes())
		}
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable): every
// numeric flag with 0, −1, NaN, +Inf and 1e308.
func TestNumericFlags(t *testing.T) {
	ok, no := true, false
	flagtable.Check(t, run, []string{"-jobs", "5", "-nodes", "4"}, nil, map[string][5]bool{
		// The outcomes for 0, −1, NaN, +Inf and 1e308.
		"nodes": {no, no, no, no, no},
		"jobs":  {no, no, no, no, no},
		"load":  {no, no, no, no, no},
		"scale": {no, no, no, no, no},
		"seed":  {ok, no, no, no, no},
	})
}
