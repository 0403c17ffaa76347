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
	"slices"
	"strings"

	"repro/internal/acct"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
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

// run parses args, runs one simulation and writes its report to stdout. The
// flags bind onto the scenario they describe; only -horizon, a run argument,
// is checked here.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nodeshare-sim", flag.ContinueOnError)
	sc := sweepgrid.Scenario{
		Workload: workload.Spec{
			Mix: workload.TrinityMix(), Jobs: 300, Arrival: workload.Poisson, Load: 1.4,
			Cluster: cluster.Trinity(32), RuntimeScale: 0.05, Seed: 42,
		},
		Share: sched.DefaultShareConfig(),
	}
	workloadFlags := workload.BindFlags(fs, &sc.Workload)
	fs.StringVar(&sc.Policy, "policy", "sharebackfill", "scheduling policy ("+strings.Join(sched.Names(), "|")+")")
	swfPath := fs.String("swf", "", "replay an SWF trace instead of generating a workload")
	trace := fs.Bool("trace", false, "print per-event trace lines")
	gantt := fs.Bool("gantt", false, "print an ASCII node-occupancy timeline after the run")
	acctPath := fs.String("acct", "", "write a JSON-lines accounting file (analyze with acct-report)")
	topoOn := fs.Bool("topo", false, "enable the interconnect model with locality-aware placement")
	corun := fs.String("corun", "", "CSV of measured co-run pairs overriding the analytic model (appA,appB,rateA,rateB)")
	corunExport := fs.Bool("corun-template", false, "print the analytic co-run matrix as a CSV template and exit")
	horizon := fs.Float64("horizon", 0, "stop after this many simulated seconds (0 = run to completion)")
	fs.Float64Var(&sc.Faults.MTBF, "mtbf", 0, "per-node mean time between failures in seconds (0 = no node failures)")
	fs.Float64Var(&sc.Faults.MTTR, "mttr", 900, "per-node mean time to repair in seconds")
	fs.Float64Var(&sc.Faults.Shape, "fault-shape", 1, "Weibull shape of time-to-failure (1 = exponential)")
	fs.Float64Var(&sc.Faults.CrashProb, "crashprob", 0, "per-attempt job crash probability")
	fs.IntVar(&sc.Faults.MaxRetries, "max-retries", 3, "requeue attempts before a job is marked failed (0 = none)")
	fs.Float64Var((*float64)(&sc.Faults.Backoff), "backoff", 30, "base requeue backoff in seconds, doubling per retry (0 = none)")
	fs.Uint64Var(&sc.Faults.Seed, "fault-seed", 1, "failure-trace RNG seed")
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
	if err := workloadFlags(); err != nil {
		return err
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
		t := topology.Default(sc.Workload.Cluster.Nodes)
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
		jobs, err = swf.ToJobs(tr, sc.Workload.Cluster)
		if err != nil {
			return err
		}
	} else if jobs, err = workload.Generate(sc.Workload); err != nil {
		return err
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
		all := slices.Concat(eng.Finished(), eng.Killed(), eng.Rejected())
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
		fmt.Fprint(stdout, report.Gantt(spans, sc.Workload.Cluster.Nodes, 100, 0, 0))
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
