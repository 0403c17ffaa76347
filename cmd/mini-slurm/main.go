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
//	mini-slurm scancel -addr 127.0.0.1:6818 -id 3
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
package main

import (
	"flag"
	"fmt"
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serve(args)
	case "sbatch":
		err = sbatch(args)
	case "squeue":
		err = squeue(args)
	case "sinfo":
		err = sinfo(args)
	case "scancel":
		err = scancel(args)
	case "advance":
		err = advance(args)
	case "drain":
		err = drain(args)
	case "stats":
		err = stats(args)
	case "scontrol":
		err = scontrol(args)
	case "health":
		err = health(args)
	case "fsck":
		err = fsck(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mini-slurm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		`usage: mini-slurm <serve|sbatch|squeue|sinfo|scancel|scontrol|advance|drain|stats|health|fsck> [flags]`)
	os.Exit(2)
}

// health probes the controller's health verb, which bypasses admission
// control — it answers even while the server is shedding load or draining.
// Exits 0 only for "ok", so it slots directly into liveness checks.
func health(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	hr, err := cl.HealthFull()
	if err != nil {
		return err
	}
	if hr.Role != "" {
		fmt.Printf("%s role=%s epoch=%d\n", hr.Health, hr.Role, hr.Epoch)
	} else {
		fmt.Println(hr.Health)
	}
	// A serve-features-on controller attaches its degradation story: the
	// brownout rung and the shed/deadline counters an operator triages with.
	if hr.Serve != nil {
		s := hr.Serve
		fmt.Printf("brownout=%s steps=%d busy=%d shed=%d deadline=%d stale_reads=%d\n",
			s.BrownoutState, s.BrownoutSteps, s.Busy, s.Shed, s.DeadlineExceeded, s.StaleReads)
	}
	if hr.Health != slurm.HealthOK {
		os.Exit(1)
	}
	return nil
}

// fsck verifies a state directory's snapshot+journal pair offline: every
// record's checksum, sequence continuity across both files, and the snapshot
// manifest. Run it against a stopped controller (or a copy of its state
// directory). Exit status: 0 clean, 1 damaged. With -repair, the committed
// prefix is rewritten as a clean v2 pair and every damaged or unreachable
// record is preserved in quarantine.jsonl.
func fsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	state := fs.String("state", "", "state directory to verify (required)")
	repair := fs.Bool("repair", false, "salvage the committed prefix and quarantine damaged records")
	fs.Parse(args)
	if *state == "" {
		return fmt.Errorf("fsck: -state is required")
	}
	report, err := slurm.Fsck(vfs.OS{}, *state)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())
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
		fmt.Printf("repaired: %d committed entries salvaged", after.Committed)
		if n := report.Unreachable + len(report.Snapshot.Damage) + len(report.Journal.Damage); n > 0 {
			fmt.Printf(", %d record(s) quarantined to %s", n, filepath.Join(*state, "quarantine.jsonl"))
		}
		fmt.Println()
		return nil
	}
	if !report.Clean() {
		os.Exit(1)
	}
	return nil
}

func scontrol(args []string) error {
	fs := flag.NewFlagSet("scontrol", flag.ExitOnError)
	drainNode := fs.Int("drain", -1, "node ID to drain")
	resumeNode := fs.Int("resume", -1, "node ID to resume")
	downNode := fs.Int("down", -1, "node ID to force down (kills and requeues resident jobs)")
	upNode := fs.Int("up", -1, "node ID to return to service")
	requeueID := fs.Int64("requeue", 0, "job ID to kill and requeue")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	switch {
	case *drainNode >= 0:
		if err := cl.DrainNode(*drainNode); err != nil {
			return err
		}
		fmt.Printf("node %d drained\n", *drainNode)
	case *resumeNode >= 0:
		if err := cl.ResumeNode(*resumeNode); err != nil {
			return err
		}
		fmt.Printf("node %d resumed\n", *resumeNode)
	case *downNode >= 0:
		if err := cl.DownNode(*downNode); err != nil {
			return err
		}
		fmt.Printf("node %d down\n", *downNode)
	case *upNode >= 0:
		if err := cl.UpNode(*upNode); err != nil {
			return err
		}
		fmt.Printf("node %d up\n", *upNode)
	case *requeueID != 0:
		if err := cl.Requeue(*requeueID); err != nil {
			return err
		}
		fmt.Printf("job %d requeued\n", *requeueID)
	default:
		return fmt.Errorf("scontrol: need -drain, -resume, -down, -up <node> or -requeue <job>")
	}
	return nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	conf := fs.String("conf", "", "slurm.conf-style configuration file (default built-in Trinity config)")
	addr := fs.String("addr", defaultAddr, "listen address")
	state := fs.String("state", "", "state directory for the write-ahead journal (enables crash recovery)")
	snapEvery := fs.Int("snapshot-every", 256, "journal appends between snapshot compactions (with -state)")
	replica := fs.String("replica", "", "standby address to replicate the journal to (run as HA primary; overrides ReplicaAddr)")
	standbyOf := fs.String("standby-of", "", "primary address to follow as a warm standby (promotes on lease expiry)")
	lease := fs.Duration("lease", 0, "HA failover lease (default 3s; overrides HALeaseSeconds)")
	fs.Parse(args)

	cfg := slurm.DefaultConfig()
	if *conf != "" {
		f, err := os.Open(*conf)
		if err != nil {
			return err
		}
		parsed, err := slurm.ParseConfig(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg = parsed
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
	// Only the flags conflict: a conf ReplicaAddr names the pair's standby,
	// and the standby itself overrides it with -standby-of when both nodes
	// share one config file.
	if *standbyOf != "" && *replica != "" {
		ctl.Close()
		return fmt.Errorf("serve: -standby-of and -replica are mutually exclusive")
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
		return err
	}
	fmt.Printf("mini-slurm: cluster %q policy %s listening on %s\n",
		cfg.ClusterName, cfg.Policy, bound)
	if *state != "" {
		fmt.Printf("mini-slurm: journaling to %s (clock %s after replay)\n", *state, ctl.Now())
	}
	if ha.Peer != "" {
		role := "primary, replicating to"
		if ha.Standby {
			role = "standby, following"
		}
		fmt.Printf("mini-slurm: HA %s %s\n", role, ha.Peer)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Shutdown(10 * time.Second)
	return ctl.Close()
}

func dial(fs *flag.FlagSet, args []string) (*slurm.Client, *flag.FlagSet, error) {
	addr := fs.String("addr", defaultAddr,
		"controller address, or comma-separated list for an HA pair (first healthy wins)")
	deadline := fs.Duration("deadline", 0,
		"per-request deadline budget; the server refuses work it cannot finish in time (0 = none)")
	hedge := fs.Duration("hedge", 0,
		"hedge read requests to the next endpoint after this long without a reply (0 = off)")
	fs.Parse(args)
	// Retrying client: BUSY responses back off, and with an endpoint list a
	// standby's not-primary rejection rotates to the next endpoint.
	cl, err := slurm.DialRetry(*addr, uint64(time.Now().UnixNano()))
	if err != nil {
		return nil, fs, err
	}
	cl.DeadlineBudget = *deadline
	if *hedge > 0 {
		cl.Hedge = &slurm.HedgePolicy{Delay: *hedge}
	}
	return cl, fs, nil
}

func sbatch(args []string) error {
	fs := flag.NewFlagSet("sbatch", flag.ExitOnError)
	app := fs.String("app", "", "application name (required)")
	nodes := fs.Int("nodes", 1, "node count")
	wall := fs.Float64("time", 3600, "requested walltime in seconds")
	runtime := fs.Float64("runtime", 0, "actual runtime in seconds (default 60% of walltime)")
	name := fs.String("name", "", "job name")
	afterSpec := fs.String("after", "", "comma-separated job IDs this job depends on (afterok)")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
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
	fmt.Printf("Submitted batch job %d\n", id)
	return nil
}

func squeue(args []string) error {
	fs := flag.NewFlagSet("squeue", flag.ExitOnError)
	history := fs.Bool("history", false, "include finished and cancelled jobs")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	jobs, err := cl.Queue(*history)
	if err != nil {
		return err
	}
	fmt.Print(slurm.Squeue(jobs))
	return nil
}

func sinfo(args []string) error {
	fs := flag.NewFlagSet("sinfo", flag.ExitOnError)
	summary := fs.Bool("summary", false, "one-line aggregate view")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	nodes, err := cl.Nodes()
	if err != nil {
		return err
	}
	if *summary {
		fmt.Println(slurm.SinfoSummary(nodes))
		return nil
	}
	fmt.Print(slurm.Sinfo(nodes))
	return nil
}

func scancel(args []string) error {
	fs := flag.NewFlagSet("scancel", flag.ExitOnError)
	id := fs.Int64("id", 0, "job ID to cancel (required)")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	if *id == 0 {
		return fmt.Errorf("scancel: -id is required")
	}
	if err := cl.Cancel(*id); err != nil {
		return err
	}
	fmt.Printf("Cancelled job %d\n", *id)
	return nil
}

func advance(args []string) error {
	fs := flag.NewFlagSet("advance", flag.ExitOnError)
	seconds := fs.Float64("seconds", 3600, "simulated seconds to advance")
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	now, err := cl.Advance(des.Duration(*seconds))
	if err != nil {
		return err
	}
	fmt.Printf("clock: %s\n", now)
	return nil
}

func drain(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	now, err := cl.Drain()
	if err != nil {
		return err
	}
	fmt.Printf("drained at %s\n", now)
	return nil
}

func stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	cl, _, err := dial(fs, args)
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Println(st)
	return nil
}
