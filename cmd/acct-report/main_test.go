package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with current output")

// TestStdout reports on testdata/small.acct (a nodeshare-sim -acct file
// with one job marked KILLED and one CANCELLED) and compares the report
// with testdata/stdout.golden, recorded before the command had run(args,
// stdout).
func TestStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{filepath.Join("testdata", "small.acct")}, &out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "stdout.golden"), out.Bytes(), *update)
}

// A wrong argument count or a missing file is refused before anything is
// written.
func TestRefusesBadArgs(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"a.acct", "b.acct"},
		{filepath.Join("testdata", "missing.acct")},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("%q: got error %v and output %q, want a refusal", args, err, out.Bytes())
		}
	}
}
