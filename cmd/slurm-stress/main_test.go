package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/cmd/internal/flagtable"
)

// Both subcommands, in-process at toy size: the scenario each stages must
// pass its own invariants (run returns them as its error) and print its
// verdict.

func TestSoak(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-clients", "4", "-submits", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "slurm-stress soak: PASS\n") {
		t.Fatalf("soak printed\n%s", out.Bytes())
	}
}

func TestFailover(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"failover", "-clients", "2", "-submits", "2", "-lease", "250ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "slurm-stress failover: PASS\n") {
		t.Fatalf("failover printed\n%s", out.Bytes())
	}
}

// TestNumericFlags is the cross-command table (cmd/internal/flagtable):
// every numeric flag of both scenarios with 0, −1, NaN, +Inf and 1e308. A
// refused value is refused before any server boots or storm starts; the
// rows that run stage a toy-sized scenario.
func TestNumericFlags(t *testing.T) {
	ok, no := true, false
	refused := [5]bool{no, no, no, no, no}
	t.Run("soak", func(t *testing.T) {
		flagtable.Check(t, run, []string{"-clients", "2", "-submits", "1"}, nil, map[string][5]bool{
			// The outcomes for 0, −1, NaN, +Inf and 1e308.
			"clients":         refused,
			"submits":         refused,
			"seed":            {ok, no, no, no, no},
			"health-interval": refused,              // the soak is judged on its probes
			"health-deadline": {ok, no, no, no, no}, // 0: no deadline
		})
	})
	t.Run("failover", func(t *testing.T) {
		failover := func(args []string, stdout io.Writer) error {
			return run(append([]string{"failover"}, args...), stdout)
		}
		flagtable.Check(t, failover, []string{"-clients", "2", "-submits", "1", "-lease", "250ms"}, nil, map[string][5]bool{
			"clients": refused,
			"submits": refused,
			"seed":    {ok, no, no, no, no},
			"lease":   refused,
		})
	})
}

// TestRefusals: negative durations and an unknown subcommand are refused
// before anything is staged, with nothing on stdout.
func TestRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-health-interval", "-10ms"},
		{"soak", "-health-deadline", "-1s"},
		{"failover", "-lease", "-250ms"},
		{"frobnicate"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("%q: got error %v and output %q, want a refusal", args, err, out.Bytes())
		}
	}
}
