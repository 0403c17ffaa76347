// Command slurm-stress drives slurm.Storm — the load driver the acceptance
// tests use — against a mini-slurm controller, in one of two scenarios:
//
//	slurm-stress soak     [-clients 64 -submits 8 ...]
//	slurm-stress failover [-clients 8 -submits 6 -lease 500ms ...]
//
// soak (the default: bare flags mean soak) hammers one controller far above
// its admission limits: requests are refused with BUSY + retry-after, clients
// retry with jittered backoff and idempotent submit tokens, and the run is
// judged on exactly-once submission plus health responsiveness. By default it
// boots an in-process server with deliberately undersized overload limits so
// that shedding is guaranteed; -addr points it at an external controller.
//
// failover runs the high-availability pair end to end in one process: a
// journaled primary replicating to a warm standby through deterministic chaos
// proxies, a storm of tokened submits, a network partition that isolates the
// primary mid-storm, and the assertions that make HA worth having —
//
//  1. the standby promotes itself within one lease,
//  2. every acknowledged submit is present exactly once after failover,
//  3. the deposed primary is fenced (rejects mutations), and
//  4. on healing, the deposed node rejoins as a standby and resyncs.
//
// A non-positive -clients or -submits, a non-positive -health-interval or
// -lease, and a negative -health-deadline are refused before any server
// boots. Exit status is 0 only if every invariant of the scenario held (or
// -h asked for the usage); every error exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/slurm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// scenarios are the subcommands, each run with the arguments after its name.
var scenarios = map[string]func(args []string, stdout io.Writer) error{"soak": runSoak, "failover": runFailover}

// run stages the scenario args[0] names (soak when args start with a flag)
// and prints its verdict line when every invariant held.
func run(args []string, stdout io.Writer) error {
	cmd := "soak"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	scenario, ok := scenarios[cmd]
	if !ok {
		return fmt.Errorf("slurm-stress: unknown subcommand %q (soak, failover)", cmd)
	}
	if err := scenario(args, stdout); err != nil {
		return fmt.Errorf("slurm-stress %s: FAIL: %w", cmd, err)
	}
	fmt.Fprintf(stdout, "slurm-stress %s: PASS\n", cmd)
	return nil
}

// positive refuses a storm size that would start no client or submit no job.
func positive(clients, submits int) error {
	if clients < 1 || submits < 1 {
		return fmt.Errorf("-clients and -submits must be positive, got %d and %d", clients, submits)
	}
	return nil
}

func runSoak(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slurm-stress soak", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "existing controller to soak (default: boot an in-process server)")
		clients  = fs.Int("clients", 64, "concurrent submitting clients")
		submits  = fs.Int("submits", 8, "distinct jobs per client")
		seed     = fs.Uint64("seed", 42, "root seed for retry-jitter RNG streams")
		conf     = fs.String("conf", "", "slurm.conf for the in-process server (default built-in + tight overload limits)")
		interval = fs.Duration("health-interval", 10*time.Millisecond, "health probe cadence")
		deadline = fs.Duration("health-deadline", time.Second, "per-probe (and per-request) response deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := positive(*clients, *submits); err != nil {
		return err
	}
	if *interval <= 0 || *deadline < 0 {
		// The soak is judged on its health probes, so it needs a cadence.
		return fmt.Errorf("-health-interval must be positive and -health-deadline not negative, got %s and %s", *interval, *deadline)
	}
	if *addr == "" {
		cfg := slurm.DefaultConfig()
		if *conf != "" {
			f, err := os.Open(*conf)
			if err != nil {
				return err
			}
			cfg, err = slurm.ParseConfig(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if cfg.Overload == (slurm.OverloadConfig{}) {
			// Undersized on purpose: the soak is only meaningful if the
			// server actually sheds.
			cfg.Overload = slurm.OverloadConfig{
				MaxConns:    *clients * 2,
				MaxInflight: 2,
				RateLimit:   50,
				RateBurst:   3,
				RetryAfter:  5 * time.Millisecond,
			}
		}
		ctl, err := slurm.NewController(cfg)
		if err != nil {
			return err
		}
		srv := slurm.NewServer(ctl)
		if *addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Shutdown(5 * time.Second)
		fmt.Fprintf(stdout, "slurm-stress: in-process server on %s (inflight %d, rate %.0f/s)\n",
			*addr, cfg.Overload.MaxInflight, cfg.Overload.RateLimit)
	}

	res, err := slurm.Storm{
		Addrs:      *addr,
		Seed:       *seed,
		Clients:    *clients,
		Submits:    *submits,
		Timeout:    *deadline,
		ProbeEvery: *interval,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "slurm-stress: sampled error:", e)
	}
	want := *clients * *submits
	switch extras, err := res.Audit(*addr, *seed); {
	case res.DuplicateIDs > 0:
		return fmt.Errorf("%d tokens resolved to multiple job IDs", res.DuplicateIDs)
	case res.Failures > 0:
		return fmt.Errorf("%d submissions exhausted retries", res.Failures)
	case len(res.Acked) != want:
		return fmt.Errorf("%d submits acknowledged, want %d", len(res.Acked), want)
	case err != nil:
		return err
	case extras != 0:
		return fmt.Errorf("server holds %d jobs nobody was acknowledged for (duplicate or leaked submits)", extras)
	case res.ProbeFailures > 0 || res.Probes == 0:
		return fmt.Errorf("%d of %d health probes failed", res.ProbeFailures, res.Probes)
	}
	return nil
}

func runFailover(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slurm-stress failover", flag.ContinueOnError)
	var (
		seed    = fs.Uint64("seed", 1, "chaos and retry-jitter RNG seed")
		clients = fs.Int("clients", 8, "concurrent submitting clients")
		submits = fs.Int("submits", 6, "submits per client")
		lease   = fs.Duration("lease", 500*time.Millisecond, "HA failover lease")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := positive(*clients, *submits); err != nil {
		return err
	}
	if *lease <= 0 {
		return fmt.Errorf("-lease must be positive, got %s", *lease)
	}
	cfg, patience := slurm.DefaultConfig(), *lease*10

	// Two journaled nodes, each on its own state directory.
	var ctls [2]*slurm.Controller
	var addrs [2]string
	for i := range ctls {
		dir, err := os.MkdirTemp("", "slurm-stress-ha-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if ctls[i], err = slurm.OpenJournaled(cfg, dir, 64); err != nil {
			return err
		}
		defer ctls[i].Close()
		srv := slurm.NewServer(ctls[i])
		if addrs[i], err = srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
	}
	addrA, addrB := addrs[0], addrs[1]

	// Every path touching node A runs through a chaos proxy, so partitioning
	// the three network-isolates the primary exactly: clients→A, A→B
	// replication, and B→A replication (the post-promotion direction).
	var proxies [3]*chaos.Proxy
	for i, p := range []struct {
		name, target string
		cfg          chaos.Config
	}{
		{"cli", addrA, chaos.Config{DelayProb: 0.05, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}},
		{"ab", addrB, chaos.Config{}},
		{"ba", addrA, chaos.Config{}},
	} {
		p.cfg.Seed, p.cfg.Name = *seed, p.name
		px, err := chaos.Listen(p.target, p.cfg)
		if err != nil {
			return err
		}
		defer px.Close()
		proxies[i] = px
	}
	pCli, pAB, pBA := proxies[0], proxies[1], proxies[2]

	if err := ctls[0].StartHA(slurm.HAOptions{Peer: pAB.Addr(), Lease: *lease}); err != nil {
		return err
	}
	if err := ctls[1].StartHA(slurm.HAOptions{Standby: true, Peer: pBA.Addr(), Lease: *lease}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "slurm-stress: primary %s replicating to standby %s (lease %s)\n", addrA, addrB, *lease)

	res, err := slurm.Storm{
		Addrs:     pCli.Addr() + "," + addrB,
		Seed:      *seed,
		Clients:   *clients,
		Submits:   *submits,
		Timeout:   300 * time.Millisecond,
		DisruptAt: *clients * *submits / 4,
		Disrupt: func() {
			fmt.Fprintln(stdout, "slurm-stress: partitioning the primary mid-storm")
			for _, px := range proxies {
				px.Partition()
			}
		},
	}.Run()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintln(stdout, "slurm-stress:   error:", e)
	}

	// 1. The standby must have promoted within about one lease; the storm's
	// failover-riding retries usually force this before the storm even ends.
	if err := waitRole(addrB, slurm.RolePrimary, patience); err != nil {
		return fmt.Errorf("standby never promoted: %w", err)
	}
	fmt.Fprintln(stdout, "slurm-stress: standby promoted to primary")

	// 2. Zero lost acknowledged submits on the new primary, exactly once,
	// and no replayed token given a second job across the promotion.
	if res.DuplicateIDs > 0 {
		return fmt.Errorf("%d tokens resolved to multiple job IDs", res.DuplicateIDs)
	}
	if _, err := res.Audit(addrB, *seed); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "slurm-stress: all %d acknowledged submits present exactly once\n", len(res.Acked))

	// 3. The deposed primary must be fenced: still reachable (dial its real
	// address, not the partitioned proxy) but refusing mutations.
	fenced, err := slurm.Dial(addrA)
	if err != nil {
		return err
	}
	_, err = fenced.SubmitToken("fenced-probe", "minife", 1, 1800, 900, "fenced-probe")
	fenced.Close()
	if err == nil {
		return fmt.Errorf("deposed primary accepted a mutation while partitioned (split brain)")
	}
	fmt.Fprintln(stdout, "slurm-stress: deposed primary is fenced")

	// 4. Heal the partition: the deposed node must observe the higher
	// epoch, demote itself, and resync from the new primary's log.
	for _, px := range proxies {
		px.Heal()
	}
	if err := waitRole(addrA, slurm.RoleStandby, patience); err != nil {
		return fmt.Errorf("deposed primary never rejoined as standby: %w", err)
	}
	if err := waitCaughtUp(addrA, addrB, patience); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "slurm-stress: deposed primary rejoined as standby and resynced")
	return nil
}

// waitRole polls a node's health until it reports the wanted HA role.
func waitRole(addr, role string, timeout time.Duration) error {
	cl, err := slurm.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		_, got, _, err := cl.HealthInfo()
		if err == nil && got == role {
			return nil
		}
		if err == nil {
			last = got
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("still %q after %s", last, timeout)
}

// waitCaughtUp polls until the follower's job list matches the primary's.
func waitCaughtUp(follower, primary string, timeout time.Duration) error {
	clF, err := slurm.Dial(follower)
	if err != nil {
		return err
	}
	defer clF.Close()
	clP, err := slurm.Dial(primary)
	if err != nil {
		return err
	}
	defer clP.Close()
	deadline := time.Now().Add(timeout)
	var nf, np int
	for time.Now().Before(deadline) {
		_, nf, err = clF.QueuePage(true, 1, 0)
		if err == nil {
			_, np, err = clP.QueuePage(true, 1, 0)
		}
		if err == nil && nf == np && np > 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("follower never caught up: %d jobs vs primary's %d after %s", nf, np, timeout)
}
