// Command wlgen generates synthetic Trinity-style workloads and writes them
// in Standard Workload Format (SWF), for consumption by nodeshare-sim or any
// other SWF-aware tool.
//
// Usage:
//
//	wlgen -jobs 500 -mix trinity -load 1.2 -seed 42 > workload.swf
//	wlgen -arrival batch -jobs 200 -o batch.swf
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/swf"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}
}

// run parses args and writes the generated trace (or the -analyze report) to
// stdout, or to the -o file.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wlgen", flag.ContinueOnError)
	spec := workload.Spec{
		Mix: workload.TrinityMix(), Jobs: 300, Arrival: workload.Poisson, Load: 1.0,
		Cluster: cluster.Trinity(32), RuntimeScale: 1.0, Seed: 42,
	}
	workloadFlags := workload.BindFlags(fs, &spec)
	out := fs.String("o", "", "output file (default stdout)")
	analyze := fs.String("analyze", "", "print statistics for an existing SWF trace and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := swf.Parse(f)
		if err != nil {
			return err
		}
		return swf.Analyze(tr).Render().Render(stdout)
	}

	if err := workloadFlags(); err != nil {
		return err
	}
	generated, err := workload.Generate(spec)
	if err != nil {
		return err
	}

	trace := swf.FromJobs(generated, spec.Cluster)
	trace.Header.Comments = append(trace.Header.Comments,
		fmt.Sprintf("Mix: %s, Arrival: %s, Load: %g, Seed: %d", spec.Mix.Name, spec.Arrival, spec.Load, spec.Seed))
	if *out == "" {
		return swf.Write(stdout, trace)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := swf.Write(f, trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
