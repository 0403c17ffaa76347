package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/flagtable"
	"repro/internal/golden"
	"repro/internal/slurm"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with current output")

// testConf is a small machine, so sinfo stays short.
const testConf = "ClusterName=test\nNodeName=nid[001-004] CPUs=64 ThreadsPerCore=2 RealMemory=131072\n"

// startServer serves a fresh controller on an ephemeral loopback port, so a
// client subcommand's refusal comes from its flags, not from a failed dial.
func startServer(t *testing.T) string {
	t.Helper()
	cfg, err := slurm.ParseConfig(strings.NewReader(testConf))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := slurm.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := slurm.NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Shutdown(time.Second)
		ctl.Close()
	})
	return addr
}

// TestStdout drives the client subcommands against one controller and
// compares their stdout with testdata/stdout.golden, recorded from the
// command before it was given run(args, stdout).
func TestStdout(t *testing.T) {
	addr := startServer(t)
	var out bytes.Buffer
	for _, args := range [][]string{
		{"sbatch", "-app", "minife", "-nodes", "2", "-time", "7200"},
		{"sbatch", "-app", "minimd", "-nodes", "4", "-time", "3600", "-name", "md"},
		{"sbatch", "-app", "amg", "-nodes", "1", "-time", "1800", "-runtime", "900", "-after", "1"},
		{"squeue"},
		{"sinfo"},
		{"sinfo", "-summary"},
		{"advance", "-seconds", "600"},
		{"squeue"},
		{"advance", "-seconds", "7200"},
		{"squeue", "-history"},
		{"stats"},
		{"health"},
	} {
		fmt.Fprintf(&out, "$ mini-slurm %s\n", strings.Join(args, " "))
		if err := run(append(args, "-addr", addr), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	golden.Check(t, filepath.Join("testdata", "stdout.golden"), out.Bytes(), *update)
}

// conn are the rows of the flags every client subcommand shares: of the
// five values only a zero duration parses, and it means none or off.
var conn = map[string][5]bool{
	"deadline": {true, false, false, false, false},
	"hedge":    {true, false, false, false, false},
}

// rows returns conn with more rows added.
func rows(more map[string][5]bool) map[string][5]bool {
	all := maps.Clone(conn)
	maps.Copy(all, more)
	return all
}

// TestNumericFlags tries every numeric flag of every subcommand with
// flagtable's five values, each call against a controller of its own.
func TestNumericFlags(t *testing.T) {
	only0 := [5]bool{true, false, false, false, false}
	for _, tc := range []struct {
		name string
		tail []string
		rows map[string][5]bool
	}{
		{"sbatch", []string{"-app", "minife"}, rows(map[string][5]bool{
			"nodes":   {},
			"time":    {},
			"runtime": only0, // 0 = 60% of the walltime
		})},
		{"squeue", nil, conn},
		{"sinfo", nil, conn},
		{"scontrol", nil, rows(map[string][5]bool{
			"drain": only0, "resume": only0, "down": only0, "up": only0, // node 0
			"requeue": {}, // job 0 is no job
		})},
		{"scancel", nil, rows(map[string][5]bool{"id": {}})},
		{"advance", nil, rows(map[string][5]bool{"seconds": {true, true, false, false, false}})}, // a negative advance is a no-op
		{"drain", nil, conn},
		{"stats", nil, conn},
		{"health", nil, conn},
		{"fsck", []string{"-state", t.TempDir()}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { flagtable.Check(t, fresh(t, tc.name), nil, tc.tail, tc.rows) })
	}
	// serve returns once it has printed its banner: the channel main closes
	// on SIGINT or SIGTERM is closed already.
	t.Run("serve", func(t *testing.T) {
		select {
		case <-stop:
		default:
			close(stop)
		}
		serve := func(args []string, stdout io.Writer) error { return run(append([]string{"serve"}, args...), stdout) }
		flagtable.Check(t, serve, []string{"-addr", "127.0.0.1:0", "-state", t.TempDir()}, nil, map[string][5]bool{
			"snapshot-every": only0, // 0 = never compact
			"lease":          only0, // 0 = the default lease
		})
	})
}

// fresh is the subcommand name run against a fresh controller per call, so
// no row sees what an earlier one did. The controller is readied for the
// call's action, and a call that gives scancel or scontrol no action gets
// one that succeeds.
func fresh(t *testing.T, name string) func([]string, io.Writer) error {
	actions := []string{"-drain", "-resume", "-down", "-up", "-requeue"}
	return func(args []string, stdout io.Writer) error {
		addr := startServer(t)
		ready := func(args ...string) {
			if err := run(append([]string{args[0], "-addr", addr}, args[1:]...), io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		switch name {
		case "scancel":
			// Only a pending job can be cancelled: job 2 waits behind job 1,
			// which takes the whole machine.
			ready("sbatch", "-app", "minife", "-nodes", "4", "-time", "86400")
			ready("sbatch", "-app", "minife")
			if !slices.Contains(args, "-id") {
				args = append(args, "-id", "2")
			}
		case "scontrol":
			if slices.Contains(args, "-up") {
				ready("scontrol", "-down", "0")
			}
			if slices.Contains(args, "-resume") {
				ready("scontrol", "-drain", "0")
			}
			if !slices.ContainsFunc(args, func(a string) bool { return slices.Contains(actions, a) }) {
				args = append(args, "-drain", "1")
			}
		}
		return run(append([]string{name, "-addr", addr}, args...), stdout)
	}
}

// TestRefusesNegativeDurations: a negative -deadline, -hedge, -lease or
// -snapshot-every used to mean "none", "off" or "the default".
func TestRefusesNegativeDurations(t *testing.T) {
	addr := startServer(t)
	for _, args := range [][]string{
		{"squeue", "-addr", addr, "-deadline", "-1s"},
		{"squeue", "-addr", addr, "-hedge", "-5ms"},
		{"serve", "-addr", "127.0.0.1:0", "-lease", "-1s"},
		{"serve", "-addr", "127.0.0.1:0", "-snapshot-every", "-3"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("%v: got error %v and output %q, want a refusal", args, err, out.Bytes())
		}
	}
}

// TestVerdictsAreErrors: health's not-ok verdict and fsck's damaged one
// are errors, which main turns into exit status 1, after the report.
func TestVerdictsAreErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // a controller that answers every request "degraded"
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for sc := bufio.NewScanner(conn); sc.Scan(); {
					conn.Write([]byte(`{"ok":true,"health":"degraded"}` + "\n"))
				}
			}()
		}
	}()
	var out bytes.Buffer
	if err := run([]string{"health", "-addr", ln.Addr().String()}, &out); err == nil || out.String() != "degraded\n" {
		t.Errorf("health of a degraded controller: error %v, output %q", err, out.Bytes())
	}

	state := t.TempDir()
	if err := os.WriteFile(filepath.Join(state, "journal.jsonl"), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"fsck", "-state", state}, &out); err == nil || !strings.Contains(out.String(), "CORRUPT") {
		t.Errorf("fsck of a damaged state directory: error %v, output %q", err, out.Bytes())
	}

	if err := run(nil, io.Discard); err == nil || !strings.HasPrefix(err.Error(), "usage: ") {
		t.Errorf("no subcommand: %v, want the usage line", err)
	}
	if err := run([]string{"frobnicate"}, io.Discard); err == nil {
		t.Error("unknown subcommand accepted")
	}
}
