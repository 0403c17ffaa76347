package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with current output")

// TestStdout runs the example and compares everything it prints with
// testdata/stdout.golden. Some lines end in spaces (padded table columns),
// which is why this is not an Example test. Never regenerate the file to make
// a library change pass.
func TestStdout(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "stdout.golden"), got, *update)
}
