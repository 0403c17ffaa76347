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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/acct"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sweepgrid"
	"repro/internal/swf"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "nodeshare-sim:", err)
		os.Exit(1)
	}
}

// run parses args, runs one simulation and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nodeshare-sim", flag.ContinueOnError)
	policy := fs.String("policy", "sharebackfill", "scheduling policy ("+strings.Join(sched.Names(), "|")+")")
	nodes := fs.Int("nodes", 32, "machine size in nodes")
	jobsN := fs.Int("jobs", 300, "synthetic workload job count")
	mixName := fs.String("mix", "trinity", "application mix")
	arrival := fs.String("arrival", "poisson", "arrival process: batch|poisson|dailycycle")
	load := fs.Float64("load", 1.4, "offered load for open arrivals")
	scale := fs.Float64("scale", 0.05, "runtime scale")
	seed := fs.Uint64("seed", 42, "workload seed")
	swfPath := fs.String("swf", "", "replay an SWF trace instead of generating a workload")
	trace := fs.Bool("trace", false, "print per-event trace lines")
	gantt := fs.Bool("gantt", false, "print an ASCII node-occupancy timeline after the run")
	acctPath := fs.String("acct", "", "write a JSON-lines accounting file (analyze with acct-report)")
	topoOn := fs.Bool("topo", false, "enable the interconnect model with locality-aware placement")
	corun := fs.String("corun", "", "CSV of measured co-run pairs overriding the analytic model (appA,appB,rateA,rateB)")
	corunExport := fs.Bool("corun-template", false, "print the analytic co-run matrix as a CSV template and exit")
	horizon := fs.Float64("horizon", 0, "stop after this many simulated seconds (0 = run to completion)")
	mtbf := fs.Float64("mtbf", 0, "per-node mean time between failures in seconds (0 = no node failures)")
	mttr := fs.Float64("mttr", 900, "per-node mean time to repair in seconds")
	faultShape := fs.Float64("fault-shape", 1, "Weibull shape of time-to-failure (1 = exponential)")
	crashProb := fs.Float64("crashprob", 0, "per-attempt job crash probability")
	maxRetries := fs.Int("max-retries", 3, "requeue attempts before a job is marked failed (0 = none)")
	backoff := fs.Float64("backoff", 30, "base requeue backoff in seconds, doubling per retry (0 = none)")
	faultSeed := fs.Uint64("fault-seed", 1, "failure-trace RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The horizon is a run argument, not a simulation input: the run loop
	// reads a negative one as "to completion", and an infinite one would end
	// on an infinite clock. Every other flag is checked by the type it fills.
	if !(*horizon >= 0) || math.IsInf(*horizon, 1) {
		return fmt.Errorf("-horizon must be ≥ 0 and finite (0 runs to completion), got %g", *horizon)
	}

	if *corunExport {
		return interference.Default().ExportCoRunCSV(stdout, app.Catalogue())
	}

	machine := cluster.Trinity(*nodes)
	sc := sweepgrid.Scenario{
		Workload: workload.Spec{Cluster: machine},
		Policy:   *policy,
		Share:    sched.DefaultShareConfig(),
		Faults: fault.Config{
			MTBF: *mtbf, MTTR: *mttr, Shape: *faultShape,
			CrashProb: *crashProb, MaxRetries: *maxRetries,
			Backoff: des.Duration(*backoff), Seed: *faultSeed,
		},
	}
	if *corun != "" {
		f, err := os.Open(*corun)
		if err != nil {
			return err
		}
		pairs, err := interference.ParseCoRunCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		sc.MeasuredPairs = pairs
	}
	if *topoOn {
		t := topology.Default(*nodes)
		sc.Topo, sc.LocalityAware = &t, true
	}
	eng, err := sc.Engine()
	if err != nil {
		return err
	}
	if *trace {
		eng.TraceFn = func(line string) { fmt.Fprintln(stdout, line) }
	}

	var jobs []*job.Job
	if *swfPath != "" {
		f, err := os.Open(*swfPath)
		if err != nil {
			return err
		}
		tr, err := swf.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		jobs, err = swf.ToJobs(tr, machine)
		if err != nil {
			return err
		}
	} else {
		mix, err := workload.MixByName(*mixName)
		if err != nil {
			return err
		}
		arr, err := workload.ArrivalByName(*arrival)
		if err != nil {
			return err
		}
		jobs, err = workload.Generate(workload.Spec{
			Mix: mix, Jobs: *jobsN, Arrival: arr, Load: *load,
			Cluster: machine, RuntimeScale: *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}

	if err := eng.SubmitAll(jobs); err != nil {
		return err
	}
	if *horizon > 0 {
		eng.Run(des.Time(*horizon))
	} else {
		eng.RunAll()
	}

	if *acctPath != "" {
		var all []*job.Job
		all = append(all, eng.Finished()...)
		all = append(all, eng.Killed()...)
		all = append(all, eng.Rejected()...)
		if err := acct.WriteFile(*acctPath, acct.FromJobs(all)); err != nil {
			return err
		}
	}

	if *gantt {
		var spans []report.Span
		for _, rec := range eng.History() {
			for _, ni := range rec.Nodes {
				spans = append(spans, report.Span{
					Node: ni, Start: float64(rec.Start), End: float64(rec.End),
					Label: int(rec.Job) - 1,
				})
			}
		}
		fmt.Fprint(stdout, report.Gantt(spans, machine.Nodes, 100, 0, 0))
		fmt.Fprintln(stdout)
	}

	r := eng.Result()
	fmt.Fprintln(stdout, r)
	fmt.Fprintf(stdout, "  computational efficiency: %.3f\n", r.CompEfficiency)
	fmt.Fprintf(stdout, "  scheduling efficiency:    %.3f\n", r.SchedEfficiency)
	fmt.Fprintf(stdout, "  utilization:              %.3f\n", r.Utilization)
	fmt.Fprintf(stdout, "  shared node-time:         %.1f%%\n", r.SharedFraction*100)
	fmt.Fprintf(stdout, "  wait mean / p95:          %.0fs / %.0fs\n", r.Wait.Mean, r.Wait.P95)
	fmt.Fprintf(stdout, "  bounded slowdown mean:    %.2f\n", r.Slowdown.Mean)
	fmt.Fprintf(stdout, "  stretch mean:             %.3f\n", r.Stretch.Mean)
	fmt.Fprintf(stdout, "  scheduler pass mean:      %.1fµs over %d passes\n",
		r.DecisionNanos.Mean/1e3, r.DecisionNanos.N)
	if sc.Faults.Active() {
		fmt.Fprintf(stdout, "  goodput:                  %.3f\n", r.Goodput)
		fmt.Fprintf(stdout, "  node failures / repairs:  %d / %d\n", r.NodeFailures, r.NodeRepairs)
		fmt.Fprintf(stdout, "  job crashes / requeues:   %d / %d\n", r.JobCrashes, r.Requeues)
		fmt.Fprintf(stdout, "  jobs failed permanently:  %d\n", r.FailedJobs)
		fmt.Fprintf(stdout, "  lost node-seconds:        %.0f\n", r.LostNodeSeconds)
		fmt.Fprintf(stdout, "  down node-seconds:        %.0f\n", r.DownNodeSeconds)
		fmt.Fprintf(stdout, "  mean time to reschedule:  %.0fs\n", r.MeanRescheduleSeconds)
	}
	return nil
}
