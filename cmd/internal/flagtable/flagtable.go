// Package flagtable is the one table test of the commands' numeric flags:
// each is tried with the same five values, in process, through the
// command's run(args, stdout) — for mini-slurm, wrapped to put the
// subcommand's name first, and run against an in-test controller so a
// refusal comes from the flag, not from a failed dial. A row either is
// refused (an error, nothing on stdout, no panic) or runs (no error, a
// report on stdout); it runs only for a value whose meaning the flag or the
// type it fills documents, such as -mtbf 0 (no node failures), -workers 0
// (all cores) or mini-slurm advance -seconds -1 (a no-op). The slurm.conf
// keys, which a package outside cmd/ parses, get the same five values from
// slurm.TestConfigKeys.
package flagtable

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"testing"
)

// Values are the five values every numeric flag is tried with.
var Values = [5]string{"0", "-1", "NaN", "+Inf", "1e308"}

// numericUsage matches a numeric flag's line in a FlagSet's -h output.
var numericUsage = regexp.MustCompile(`(?m)^  -(\S+) (int|int64|uint|uint64|float|duration)\b`)

// Check runs run(args, -flag, value, tail) for each row and each of Values.
// rows maps every numeric flag of the command, without its dash, to whether
// it runs (true) or is refused (false) with each of Values, in order. Check
// fails on a numeric flag the command's -h lists without a row, and on a row
// for any other flag. The command's FlagSet prints its usage and parse
// errors to os.Stderr, which Check points at a file meanwhile.
func Check(t *testing.T, run func([]string, io.Writer) error, args, tail []string, rows map[string][5]bool) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = stderr }()

	call(run, []string{"-h"}, io.Discard)
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	numeric := map[string]bool{}
	for _, m := range numericUsage.FindAllSubmatch(usage, -1) {
		numeric[string(m[1])] = true
		if _, ok := rows[string(m[1])]; !ok {
			t.Errorf("numeric flag -%s has no row", m[1])
		}
	}
	for name, runs := range rows {
		if !numeric[name] {
			t.Errorf("row -%s names no numeric flag of the command", name)
		}
		for i, v := range Values {
			var out bytes.Buffer
			panicked, err := call(run, append(append(append([]string{}, args...), "-"+name, v), tail...), &out)
			switch {
			case panicked != nil:
				t.Errorf("-%s %s: panicked: %v", name, v, panicked)
			case runs[i] && (err != nil || out.Len() == 0):
				t.Errorf("-%s %s: want it to run, got error %v and %d bytes of output", name, v, err, out.Len())
			case !runs[i] && (err == nil || out.Len() != 0):
				t.Errorf("-%s %s: want it refused, got error %v and output %q", name, v, err, out.Bytes())
			}
		}
	}
}

// call runs the command and recovers a panic.
func call(run func([]string, io.Writer) error, args []string, stdout io.Writer) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, run(args, stdout)
}
