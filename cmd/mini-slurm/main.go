// Command mini-slurm is the SLURM-like workload manager front end: a
// controller daemon plus sbatch/squeue/sinfo/scancel-style subcommands that
// talk to it over TCP. Time inside the controller is simulated; the
// `advance` and `drain` subcommands move it.
//
// Usage:
//
//	mini-slurm serve -conf slurm.conf -addr 127.0.0.1:6818 -state /var/spool/mini-slurm &
//	mini-slurm sbatch -addr 127.0.0.1:6818 -app minife -nodes 4 -time 7200
//	mini-slurm squeue -addr 127.0.0.1:6818
//	mini-slurm sinfo  -addr 127.0.0.1:6818
//	mini-slurm advance -addr 127.0.0.1:6818 -seconds 3600
//	mini-slurm scancel -addr 127.0.0.1:6818 -id 3         # jobs not yet started
//	mini-slurm scontrol -addr 127.0.0.1:6818 -down 5        # then -up 5
//	mini-slurm scontrol -addr 127.0.0.1:6818 -requeue 3
//	mini-slurm stats  -addr 127.0.0.1:6818
//	mini-slurm health -addr 127.0.0.1:6818        # ok|degraded|draining|fenced
//
// With -state, every accepted operation is appended to a write-ahead journal
// before it is acknowledged; restarting with the same directory replays the
// journal and resumes from the identical queue, node, and clock state.
// Journal records are CRC32C-checksummed (DESIGN.md §11); `fsck` verifies a
// state directory offline and `-repair` salvages the committed prefix,
// quarantining damaged records to quarantine.jsonl:
//
//	mini-slurm fsck -state /var/spool/mini-slurm
//	mini-slurm fsck -state /var/spool/mini-slurm -repair
//
// High availability: run a pair of daemons, the primary pushing its journal
// to a warm standby (see DESIGN.md §9). Client subcommands accept a
// comma-separated -addr list and fail over to the next endpoint when the
// node they reached cannot serve them:
//
//	mini-slurm serve -state /srv/a -addr :6818 -replica 127.0.0.1:6819 &
//	mini-slurm serve -state /srv/b -addr :6819 -standby-of 127.0.0.1:6818 &
//	mini-slurm sbatch -addr 127.0.0.1:6818,127.0.0.1:6819 -app minife -nodes 4 -time 7200
//	mini-slurm health -addr 127.0.0.1:6819        # ok role=standby epoch=1
//
// Every client subcommand also takes -deadline (a per-request time budget the
// server honors end to end, refusing work it cannot finish in time) and
// -hedge (duplicate a stalled read to the next -addr endpoint after the given
// delay). With serve features configured (DESIGN.md §15), `health` prints the
// brownout rung and shed/deadline counters alongside the liveness verdict.
//
// Every error exits 1: a bad flag, a health verdict other than ok, an fsck
// that finds damage.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/slurm"
	"repro/internal/vfs"
)

const defaultAddr = "127.0.0.1:6818"

// commands are the subcommands, each run with the arguments after its name.
var commands = map[string]func(args []string, stdout io.Writer) error{
	"serve": serve, "sbatch": sbatch, "squeue": squeue, "sinfo": sinfo,
	"scancel": scancel, "scontrol": scontrol, "advance": advance, "drain": drain,
	"stats": stats, "health": health, "fsck": fsck,
}

// stop is closed by main on serve's first SIGINT or SIGTERM; serve shuts
// down when it is.
var stop = make(chan struct{})

func main() {
	// The client subcommands keep the default: a signal ends the process.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() { <-sig; close(stop) }()
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "mini-slurm:", err)
		os.Exit(1)
	}
}

// run looks up the subcommand args[0] names and runs it with the rest.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 || commands[args[0]] == nil {
		return errors.New("usage: mini-slurm <serve|sbatch|squeue|sinfo|scancel|scontrol|advance|drain|stats|health|fsck> [flags]")
	}
	return commands[args[0]](args[1:], stdout)
}

// health probes the controller's health verb, which bypasses admission
// control — it answers even while the server is shedding load or draining.
// Any verdict but "ok" is an error, so it slots directly into liveness
// checks.
func health(args []string, stdout io.Writer) error {
	return client(flag.NewFlagSet("health", flag.ContinueOnError), args, func(cl *slurm.Client) error {
		hr, err := cl.HealthFull()
		if err != nil {
			return err
		}
		if hr.Role != "" {
			fmt.Fprintf(stdout, "%s role=%s epoch=%d\n", hr.Health, hr.Role, hr.Epoch)
		} else {
			fmt.Fprintln(stdout, hr.Health)
		}
		// A serve-features-on controller attaches its degradation story: the
		// brownout rung and the shed/deadline counters an operator triages with.
		if hr.Serve != nil {
			s := hr.Serve
			fmt.Fprintf(stdout, "brownout=%s steps=%d busy=%d shed=%d deadline=%d stale_reads=%d\n",
				s.BrownoutState, s.BrownoutSteps, s.Busy, s.Shed, s.DeadlineExceeded, s.StaleReads)
		}
		if hr.Health != slurm.HealthOK {
			return fmt.Errorf("health: controller is %s", hr.Health)
		}
		return nil
	})
}

// fsck verifies a state directory's snapshot+journal pair offline: every
// record's checksum, sequence continuity across both files, and the snapshot
// manifest. Run it against a stopped controller (or a copy of its state
// directory). Damage is an error. With -repair, the committed prefix is
// rewritten as a clean v2 pair and every damaged or unreachable record is
// preserved in quarantine.jsonl.
func fsck(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	state := fs.String("state", "", "state directory to verify (required)")
	repair := fs.Bool("repair", false, "salvage the committed prefix and quarantine damaged records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("fsck: -state is required")
	}
	report, err := slurm.Fsck(vfs.OS{}, *state)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, report.Summary())
	if *repair {
		if _, err := slurm.FsckRepair(vfs.OS{}, *state); err != nil {
			return err
		}
		after, err := slurm.Fsck(vfs.OS{}, *state)
		if err != nil {
			return err
		}
		if !after.Clean() {
			return fmt.Errorf("fsck: repair left damage behind")
		}
		fmt.Fprintf(stdout, "repaired: %d committed entries salvaged", after.Committed)
		if n := report.Unreachable + len(report.Snapshot.Damage) + len(report.Journal.Damage); n > 0 {
			fmt.Fprintf(stdout, ", %d record(s) quarantined to %s", n, filepath.Join(*state, "quarantine.jsonl"))
		}
		fmt.Fprintln(stdout)
		return nil
	}
	if !report.Clean() {
		return fmt.Errorf("fsck: %s is damaged", *state)
	}
	return nil
}

func scontrol(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scontrol", flag.ContinueOnError)
	drainNode := fs.Int("drain", -1, "node ID to drain")
	resumeNode := fs.Int("resume", -1, "node ID to resume")
	downNode := fs.Int("down", -1, "node ID to force down (kills and requeues resident jobs)")
	upNode := fs.Int("up", -1, "node ID to return to service")
	requeueID := fs.Int64("requeue", 0, "job ID to kill and requeue")
	return client(fs, args, func(cl *slurm.Client) error {
		done := func(err error, format string, id any) error {
			if err == nil {
				fmt.Fprintf(stdout, format, id)
			}
			return err
		}
		switch {
		case *drainNode >= 0:
			return done(cl.DrainNode(*drainNode), "node %d drained\n", *drainNode)
		case *resumeNode >= 0:
			return done(cl.ResumeNode(*resumeNode), "node %d resumed\n", *resumeNode)
		case *downNode >= 0:
			return done(cl.DownNode(*downNode), "node %d down\n", *downNode)
		case *upNode >= 0:
			return done(cl.UpNode(*upNode), "node %d up\n", *upNode)
		case *requeueID != 0:
			return done(cl.Requeue(*requeueID), "job %d requeued\n", *requeueID)
		}
		return fmt.Errorf("scontrol: need -drain, -resume, -down, -up <node> or -requeue <job>")
	})
}

// serve runs a controller until stop is closed.
func serve(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	conf := fs.String("conf", "", "slurm.conf-style configuration file (default built-in Trinity config)")
	addr := fs.String("addr", defaultAddr, "listen address")
	state := fs.String("state", "", "state directory for the write-ahead journal (enables crash recovery)")
	snapEvery := fs.Int("snapshot-every", 256, "journal appends between snapshot compactions (with -state; 0 = never)")
	replica := fs.String("replica", "", "standby address to replicate the journal to (run as HA primary; overrides ReplicaAddr)")
	standbyOf := fs.String("standby-of", "", "primary address to follow as a warm standby (promotes on lease expiry)")
	lease := fs.Duration("lease", 0, "HA failover lease (default 3s; overrides HALeaseSeconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *snapEvery < 0 || *lease < 0:
		return fmt.Errorf("serve: -snapshot-every %d and -lease %s must not be negative", *snapEvery, *lease)
	case *standbyOf != "" && *replica != "":
		// Only the flags conflict: a conf ReplicaAddr names the pair's
		// standby, and the standby itself overrides it with -standby-of when
		// both nodes share one config file.
		return fmt.Errorf("serve: -standby-of and -replica are mutually exclusive")
	}

	cfg := slurm.DefaultConfig()
	if *conf != "" {
		data, err := os.ReadFile(*conf)
		if err == nil {
			cfg, err = slurm.ParseConfig(bytes.NewReader(data))
		}
		if err != nil {
			return err
		}
	}
	// A -lease override must leave the configured heartbeat inside the
	// fencing window, as the configuration file alone had to.
	haCfg := cfg.HA
	if *lease > 0 {
		haCfg.Lease = *lease
	}
	if err := haCfg.Validate(); err != nil {
		return fmt.Errorf("serve: -lease: %w", err)
	}
	var ctl *slurm.Controller
	var err error
	if *state != "" {
		if err := os.MkdirAll(*state, 0o755); err != nil {
			return err
		}
		ctl, err = slurm.OpenJournaled(cfg, *state, *snapEvery)
	} else {
		ctl, err = slurm.NewController(cfg)
	}
	if err != nil {
		return err
	}
	ha := slurm.HAOptions{Lease: haCfg.Lease, Heartbeat: haCfg.Heartbeat}
	switch {
	case *standbyOf != "":
		ha.Standby, ha.Peer = true, *standbyOf
	case *replica != "":
		ha.Peer = *replica
	case cfg.HA.Replica != "":
		ha.Peer = cfg.HA.Replica
	}
	if ha.Peer != "" {
		if err := ctl.StartHA(ha); err != nil {
			ctl.Close()
			return err
		}
	}
	srv := slurm.NewServer(ctl)
	bound, err := srv.Listen(*addr)
	if err != nil {
		ctl.Close()
		return err
	}
	fmt.Fprintf(stdout, "mini-slurm: cluster %q policy %s listening on %s\n",
		cfg.ClusterName, cfg.Policy, bound)
	if *state != "" {
		fmt.Fprintf(stdout, "mini-slurm: journaling to %s (clock %s after replay)\n", *state, ctl.Now())
	}
	if ha.Peer != "" {
		role := "primary, replicating to"
		if ha.Standby {
			role = "standby, following"
		}
		fmt.Fprintf(stdout, "mini-slurm: HA %s %s\n", role, ha.Peer)
	}
	<-stop
	srv.Shutdown(10 * time.Second)
	return ctl.Close()
}

// client parses a client subcommand's flags, with the connection flags
// every client shares added to fs, dials the controller and runs do with it.
func client(fs *flag.FlagSet, args []string, do func(*slurm.Client) error) error {
	addr := fs.String("addr", defaultAddr,
		"controller address, or comma-separated list for an HA pair (first healthy wins)")
	deadline := fs.Duration("deadline", 0,
		"per-request deadline budget; the server refuses work it cannot finish in time (0 = none)")
	hedge := fs.Duration("hedge", 0,
		"hedge read requests to the next endpoint after this long without a reply (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deadline < 0 || *hedge < 0 {
		return fmt.Errorf("%s: -deadline %s and -hedge %s must not be negative", fs.Name(), *deadline, *hedge)
	}
	// Retrying client: BUSY responses back off, and with an endpoint list a
	// standby's not-primary rejection rotates to the next endpoint.
	cl, err := slurm.DialRetry(*addr, uint64(time.Now().UnixNano()))
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.DeadlineBudget = *deadline
	if *hedge > 0 {
		cl.Hedge = &slurm.HedgePolicy{Delay: *hedge}
	}
	return do(cl)
}

func sbatch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sbatch", flag.ContinueOnError)
	app := fs.String("app", "", "application name (required)")
	nodes := fs.Int("nodes", 1, "node count")
	wall := fs.Float64("time", 3600, "requested walltime in seconds")
	runtime := fs.Float64("runtime", 0, "actual runtime in seconds (default 60% of walltime)")
	name := fs.String("name", "", "job name")
	afterSpec := fs.String("after", "", "comma-separated job IDs this job depends on (afterok)")
	return client(fs, args, func(cl *slurm.Client) error {
		if *app == "" {
			return fmt.Errorf("sbatch: -app is required")
		}
		var after []int64
		if *afterSpec != "" {
			for _, part := range strings.Split(*afterSpec, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return fmt.Errorf("sbatch: bad -after %q: %v", part, err)
				}
				after = append(after, v)
			}
		}
		id, err := cl.Submit(*app, *nodes, des.Duration(*wall), des.Duration(*runtime), *name, after...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Submitted batch job %d\n", id)
		return nil
	})
}

func squeue(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("squeue", flag.ContinueOnError)
	history := fs.Bool("history", false, "include finished and cancelled jobs")
	return client(fs, args, func(cl *slurm.Client) error {
		jobs, err := cl.Queue(*history)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, slurm.Squeue(jobs))
		return nil
	})
}

func sinfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sinfo", flag.ContinueOnError)
	summary := fs.Bool("summary", false, "one-line aggregate view")
	return client(fs, args, func(cl *slurm.Client) error {
		nodes, err := cl.Nodes()
		if err != nil {
			return err
		}
		if *summary {
			fmt.Fprintln(stdout, slurm.SinfoSummary(nodes))
			return nil
		}
		fmt.Fprint(stdout, slurm.Sinfo(nodes))
		return nil
	})
}

// scancel cancels a pending job. A job that has started cannot be cancelled
// (the simulator does not preempt); scontrol -requeue evicts it instead.
func scancel(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scancel", flag.ContinueOnError)
	id := fs.Int64("id", 0, "ID of the pending job to cancel (required; a running job is evicted with scontrol -requeue)")
	return client(fs, args, func(cl *slurm.Client) error {
		if *id == 0 {
			return fmt.Errorf("scancel: -id is required")
		}
		if err := cl.Cancel(*id); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Cancelled job %d\n", *id)
		return nil
	})
}

func advance(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advance", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 3600, "simulated seconds to advance")
	return client(fs, args, func(cl *slurm.Client) error {
		now, err := cl.Advance(des.Duration(*seconds))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "clock: %s\n", now)
		return nil
	})
}

func drain(args []string, stdout io.Writer) error {
	return client(flag.NewFlagSet("drain", flag.ContinueOnError), args, func(cl *slurm.Client) error {
		now, err := cl.Drain()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "drained at %s\n", now)
		return nil
	})
}

func stats(args []string, stdout io.Writer) error {
	return client(flag.NewFlagSet("stats", flag.ContinueOnError), args, func(cl *slurm.Client) error {
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, st)
		return nil
	})
}
