// Slurmproto: drive the SLURM-like workload manager programmatically — boot
// a controller + protocol server in-process, submit a morning's worth of
// jobs over TCP like sbatch would, advance simulated time, and read queue
// state through the same wire protocol the command-line tools use.
//
//	go run ./examples/slurmproto
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/des"
	"repro/internal/slurm"
)

func main() {
	// A config exactly as mini-slurm serve would load from slurm.conf.
	conf := `
ClusterName=example
SchedulerType=sched/share_backfill
OverSubscribe=YES
MinComplementarity=0.4
NodeName=nid[01-08] CPUs=64 ThreadsPerCore=2 RealMemory=131072
PartitionName=batch MaxTime=86400
PriorityWeightAge=1000
PriorityWeightJobSize=100
`
	cfg, err := slurm.ParseConfig(strings.NewReader(conf))
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := slurm.NewController(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := slurm.NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller for %q listening\n\n", cfg.ClusterName)

	cl, err := slurm.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// 08:00 — a bandwidth-bound solver takes the machine.
	if _, err := cl.Submit("minife", 8, 6*des.Hour, 4*des.Hour, "solver"); err != nil {
		log.Fatal(err)
	}
	// 08:01 — an MD production run arrives; complementary, so it
	// co-allocates instead of queueing.
	if _, err := cl.Advance(des.Minute); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Submit("minimd", 8, 4*des.Hour, 3*des.Hour, "md-prod"); err != nil {
		log.Fatal(err)
	}
	// 08:02 — another bandwidth-bound job clashes with the solver and must
	// wait for a reservation.
	if _, err := cl.Advance(des.Minute); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Submit("milc", 8, 2*des.Hour, 1*des.Hour, "qcd"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("queue two minutes into the morning:")
	jobs, err := cl.Queue(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(slurm.Squeue(jobs))

	nodes, err := cl.Nodes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(slurm.SinfoSummary(nodes))

	// Let the day play out and account for it.
	if _, err := cl.Drain(); err != nil {
		log.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nend of day: %s\n", st)
}
