package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps the message Check fails with.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	r.msg = strings.TrimSpace(strings.Join(strings.Fields(fmt.Sprintf(format, args...)), " "))
	panic(r)
}

func (r *recorder) Fatal(args ...any) { r.Fatalf("%s", fmt.Sprint(args...)) }

// check runs Check and returns its failure message, "" on a match.
func check(t *testing.T, path string, got string) (msg string) {
	r := &recorder{TB: t}
	defer func() {
		if p := recover(); p != nil && p != r {
			panic(p)
		}
		msg = r.msg
	}()
	Check(r, path, []byte(got), false)
	return ""
}

func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.golden")
	Check(t, path, []byte("a\nb\nc\n"), true)
	if data, err := os.ReadFile(path); err != nil || string(data) != "a\nb\nc\n" {
		t.Fatalf("update wrote %q, %v", data, err)
	}
	for _, tc := range []struct{ got, want string }{
		{"a\nb\nc\n", ""},
		{"a\nB\nc\n", `out.golden:2: first difference from the golden file got "B\n" want "b\n"`},
		{"a\nb\n", `out.golden:3: first difference from the golden file got end of output want "c\n"`},
		{"a\nb\nc\nd", `out.golden:4: first difference from the golden file got "d" want end of output`},
		{"a\nb\nc", `out.golden:3: first difference from the golden file got "c" want "c\n"`},
	} {
		msg := check(t, path, tc.got)
		if !strings.HasSuffix(msg, tc.want) || (tc.want == "") != (msg == "") {
			t.Errorf("Check(%q) failed with %q, want it to end in %q", tc.got, msg, tc.want)
		}
	}
}
