// Command nodeshare-sim runs one batch-system simulation and prints its
// metrics: either a synthetic workload (generated in-process) or an SWF
// trace replay.
//
// Usage:
//
//	nodeshare-sim -policy sharebackfill -jobs 300 -load 1.4
//	nodeshare-sim -policy easy -swf workload.swf
//	nodeshare-sim -policy sharefirstfit -trace -jobs 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/acct"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/swf"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	policy := flag.String("policy", "sharebackfill", "scheduling policy ("+strings.Join(sched.Names(), "|")+")")
	nodes := flag.Int("nodes", 32, "machine size in nodes")
	jobsN := flag.Int("jobs", 300, "synthetic workload job count")
	mixName := flag.String("mix", "trinity", "application mix")
	arrival := flag.String("arrival", "poisson", "arrival process: batch|poisson|dailycycle")
	load := flag.Float64("load", 1.4, "offered load for open arrivals")
	scale := flag.Float64("scale", 0.05, "runtime scale")
	seed := flag.Uint64("seed", 42, "workload seed")
	swfPath := flag.String("swf", "", "replay an SWF trace instead of generating a workload")
	trace := flag.Bool("trace", false, "print per-event trace lines")
	gantt := flag.Bool("gantt", false, "print an ASCII node-occupancy timeline after the run")
	acctPath := flag.String("acct", "", "write a JSON-lines accounting file (analyze with acct-report)")
	topoOn := flag.Bool("topo", false, "enable the interconnect model with locality-aware placement")
	corun := flag.String("corun", "", "CSV of measured co-run pairs overriding the analytic model (appA,appB,rateA,rateB)")
	corunExport := flag.Bool("corun-template", false, "print the analytic co-run matrix as a CSV template and exit")
	horizon := flag.Float64("horizon", 0, "stop after this many simulated seconds (0 = run to completion)")
	mtbf := flag.Float64("mtbf", 0, "per-node mean time between failures in seconds (0 = no node failures)")
	mttr := flag.Float64("mttr", 900, "per-node mean time to repair in seconds")
	faultShape := flag.Float64("fault-shape", 1, "Weibull shape of time-to-failure (1 = exponential)")
	crashProb := flag.Float64("crashprob", 0, "per-attempt job crash probability")
	maxRetries := flag.Int("max-retries", 3, "requeue attempts before a job is marked failed (negative = none)")
	backoff := flag.Float64("backoff", 30, "base requeue backoff in seconds, doubling per retry (negative = none)")
	faultSeed := flag.Uint64("fault-seed", 1, "failure-trace RNG seed")
	flag.Parse()

	if *corunExport {
		if err := interference.Default().ExportCoRunCSV(os.Stdout, app.Catalogue()); err != nil {
			fatal(err)
		}
		return
	}

	machine := cluster.Trinity(*nodes)
	cfg := core.Config{Machine: machine, Policy: *policy}
	if *corun != "" {
		f, err := os.Open(*corun)
		if err != nil {
			fatal(err)
		}
		pairs, err := interference.ParseCoRunCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.MeasuredPairs = pairs
	}
	if *topoOn {
		t := topology.Default(*nodes)
		cfg.Topology = &t
		cfg.LocalityAware = true
	}
	if *mtbf < 0 || *crashProb < 0 {
		fatal(fmt.Errorf("-mtbf and -crashprob must be non-negative"))
	}
	faultsOn := *mtbf > 0 || *crashProb > 0
	if faultsOn {
		cfg.Faults = &fault.Config{
			Enabled: true, MTBF: *mtbf, MTTR: *mttr, Shape: *faultShape,
			CrashProb: *crashProb, MaxRetries: *maxRetries,
			Backoff: des.Duration(*backoff), Seed: *faultSeed,
		}
		if err := cfg.Faults.Validate(); err != nil {
			fatal(err)
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	if *trace {
		sys.Trace(func(line string) { fmt.Println(line) })
	}

	var jobs []*job.Job
	if *swfPath != "" {
		f, err := os.Open(*swfPath)
		if err != nil {
			fatal(err)
		}
		tr, err := swf.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		jobs, err = swf.ToJobs(tr, machine)
		if err != nil {
			fatal(err)
		}
	} else {
		mix, err := workload.MixByName(*mixName)
		if err != nil {
			fatal(err)
		}
		var arr workload.Arrival
		switch *arrival {
		case "batch":
			arr = workload.Batch
			*load = 0
		case "poisson":
			arr = workload.Poisson
		case "dailycycle":
			arr = workload.DailyCycle
		default:
			fatal(fmt.Errorf("unknown arrival %q", *arrival))
		}
		jobs, err = workload.Generate(workload.Spec{
			Mix: mix, Jobs: *jobsN, Arrival: arr, Load: *load,
			Cluster: machine, RuntimeScale: *scale, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
	}

	if err := sys.SubmitJobs(jobs); err != nil {
		fatal(err)
	}
	if *horizon > 0 {
		sys.RunUntil(des.Time(*horizon))
	} else {
		sys.Run()
	}

	if *acctPath != "" {
		var all []*job.Job
		all = append(all, sys.Finished()...)
		all = append(all, sys.Engine().Killed()...)
		all = append(all, sys.Engine().Rejected()...)
		if err := acct.WriteFile(*acctPath, acct.FromJobs(all)); err != nil {
			fatal(err)
		}
	}

	if *gantt {
		var spans []report.Span
		for _, rec := range sys.History() {
			for _, ni := range rec.Nodes {
				spans = append(spans, report.Span{
					Node: ni, Start: float64(rec.Start), End: float64(rec.End),
					Label: int(rec.Job) - 1,
				})
			}
		}
		fmt.Print(report.Gantt(spans, machine.Nodes, 100, 0, 0))
		fmt.Println()
	}

	r := sys.Metrics()
	fmt.Println(r)
	fmt.Printf("  computational efficiency: %.3f\n", r.CompEfficiency)
	fmt.Printf("  scheduling efficiency:    %.3f\n", r.SchedEfficiency)
	fmt.Printf("  utilization:              %.3f\n", r.Utilization)
	fmt.Printf("  shared node-time:         %.1f%%\n", r.SharedFraction*100)
	fmt.Printf("  wait mean / p95:          %.0fs / %.0fs\n", r.Wait.Mean, r.Wait.P95)
	fmt.Printf("  bounded slowdown mean:    %.2f\n", r.Slowdown.Mean)
	fmt.Printf("  stretch mean:             %.3f\n", r.Stretch.Mean)
	fmt.Printf("  scheduler pass mean:      %.1fµs over %d passes\n",
		r.DecisionNanos.Mean/1e3, r.DecisionNanos.N)
	if faultsOn {
		fmt.Printf("  goodput:                  %.3f\n", r.Goodput)
		fmt.Printf("  node failures / repairs:  %d / %d\n", r.NodeFailures, r.NodeRepairs)
		fmt.Printf("  job crashes / requeues:   %d / %d\n", r.JobCrashes, r.Requeues)
		fmt.Printf("  jobs failed permanently:  %d\n", r.FailedJobs)
		fmt.Printf("  lost node-seconds:        %.0f\n", r.LostNodeSeconds)
		fmt.Printf("  down node-seconds:        %.0f\n", r.DownNodeSeconds)
		fmt.Printf("  mean time to reschedule:  %.0fs\n", r.MeanRescheduleSeconds)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nodeshare-sim:", err)
	os.Exit(1)
}
