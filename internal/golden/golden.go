// Package golden is the tests' one golden-file harness: it compares output
// with a file recorded from code known to be right.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Check fails t unless got equals the file at path, naming the first line
// that differs. With update it writes got to path instead, making its
// directory; a golden file is recorded that way only from code known to be
// right, never to make a change pass.
func Check(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	i := 0
	for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
		i++
	}
	line := func(lines [][]byte) string {
		if i < len(lines) && len(lines[i]) > 0 {
			return fmt.Sprintf("%q", lines[i])
		}
		return "end of output"
	}
	t.Fatalf("%s:%d: first difference from the golden file\n got %s\nwant %s", path, i+1, line(g), line(w))
}
