// Command benchmark is the repository's one benchmark: it runs one named
// workload against one of the three products (the node-sharing simulator, the
// sweep fabric, the mini-slurm controller), checks that the outputs are
// correct, and prints every metric of BENCHMARK.json by name with its unit.
// It measures every layer from outside, by timing and counting calls into the
// layers' public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// runConfig is what one run of one workload was asked to do.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short selects toy sizes so the package's tests finish in seconds.
	short bool
	// inject breaks one thing on purpose (see injections) so a test can show
	// the matching correctness check catches it.
	inject string
	// threads is GOMAXPROCS = load threads = connections.
	threads int
	// dir is benchmark/, where golden.json lives; outDir is benchmark/out.
	dir, outDir  string
	updateGolden bool
}

// injections are the deliberate faults -inject accepts.
var injections = []string{"hide-shareconfig", "corrupt-csv", "drop-ack"}

// load is one named workload of BENCHMARK.json. setUp builds what the
// measured phase needs and is what setup_s times; it may report set-up-time
// layer numbers into res. traced says the instance will be measured with a
// tracer, so trace-only relays and micro-benchmarks belong in it.
type load interface {
	setUp(cfg *runConfig, res *result, traced bool) (instance, error)
}

// instance is one set-up, ready to be measured once.
type instance interface {
	// measure runs the timed phase for about d and reports into res. tr is
	// nil on the untraced run.
	measure(d time.Duration, tr *tracer, res *result) error
	close()
}

var workloads = map[string]load{
	"sim_share_deep":     simLoad{policy: "sharebackfill", load: 1.4, jobs: 4000},
	"sim_easy_light":     simLoad{policy: "easy", load: 0.5, jobs: 20000},
	"sweep_mixed":        sweepLoad{},
	"fabric_small_cells": fabricLoad{},
	"ctl_submit_ha":      submitLoad{},
	"ctl_query_mixed":    queryLoad{},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg  runConfig
		aa   string
		tr   int
		list bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	fs.Uint64Var(&cfg.seed, "seed", 42, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "how long the timed phase measures (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&tr, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.BoolVar(&cfg.short, "short", false, "toy sizes, for the package's tests")
	fs.StringVar(&cfg.inject, "inject", "", "break one thing on purpose: "+strings.Join(injections, ", "))
	fs.StringVar(&aa, "aa", "", "run this workload twice back to back and compare the end-to-end metrics")
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite golden.json from this run (only after a deliberate model change)")
	fs.BoolVar(&list, "list", false, "list the workloads and why each exists")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg.trace = tr != 0

	m, root, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cfg.dir = filepath.Join(root, "benchmark")
	cfg.outDir = filepath.Join(cfg.dir, "out")
	if cfg.seconds <= 0 {
		cfg.seconds = float64(m.RunSeconds)
	}

	switch {
	case list:
		for _, w := range m.Workloads {
			fmt.Fprintf(stdout, "%-20s %s\n", w.Name, w.Why)
		}
		return 0
	case aa != "":
		cfg.workload = aa
		if err := checkWorkload(m, &cfg); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return runAA(m, &cfg, stdout, stderr)
	}
	if err := checkWorkload(m, &cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	out, err := runWorkload(m, &cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func checkWorkload(m *manifest, cfg *runConfig) error {
	if _, ok := workloads[cfg.workload]; !ok || !m.workload(cfg.workload) {
		var names []string
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q; choose one of %s", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.inject != "" && !slices.Contains(injections, cfg.inject) {
		return fmt.Errorf("unknown -inject %q; choose one of %s", cfg.inject, strings.Join(injections, ", "))
	}
	return nil
}

// output is the last line of standard output: the driver's contract.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up (several times, so setup_s is a median),
// measures it, checks it, prints every number it took and returns the
// contract's summary.
func runWorkload(m *manifest, cfg *runConfig, stdout io.Writer) (*output, error) {
	cfg.threads = loadThreads()
	runtime.GOMAXPROCS(cfg.threads)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	w := workloads[cfg.workload]

	// Set-up runs five times and reports its median. The last set-up is the
	// one measured; on a traced run the first is kept too and measured
	// untraced, which is where host.trace_overhead_ratio comes from.
	setups, events := 5, 2_000_000
	if cfg.short {
		setups, events = 1, 20_000
		if cfg.trace {
			setups = 2
		}
	}
	if !cfg.short {
		warmHost(hostWarmUp)
	}
	res := newResult()
	var (
		setupTimes []time.Duration
		nsPerEvent []float64
		allocs     []float64
		kept       []instance
	)
	defer func() {
		for _, inst := range kept {
			inst.close()
		}
	}()
	for i := 0; i < setups; i++ {
		start := time.Now()
		y := runYardstick(events)
		inst, err := w.setUp(cfg, res, cfg.trace && i == setups-1)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start))
		nsPerEvent = append(nsPerEvent, y.nsPerEvent)
		allocs = append(allocs, y.allocsPerEvent)
		if i == setups-1 || (cfg.trace && i == 0) {
			kept = append(kept, inst)
		} else {
			inst.close()
		}
	}
	res.set("setup_s", medianDuration(setupTimes).Seconds())
	res.note("setup_s", "median of %d set-ups", setups)
	res.set("host.kernel_ns_per_event", stats.Median(nsPerEvent))
	res.set("host.load_threads", float64(cfg.threads))
	res.set("des.kernel_allocs_per_event", stats.Median(allocs))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		// A third of the time goes to the untraced baseline, the rest to the
		// traced phase.
		base := newResult()
		if err := kept[0].measure(budget/3, nil, base); err != nil {
			return nil, fmt.Errorf("%s: untraced baseline: %w", cfg.workload, err)
		}
		kept[0].close()
		kept = kept[1:]
		tr = newTracer(cfg.workload)
		if err := kept[0].measure(budget-budget/3, tr, res); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		res.problems = append(res.problems, base.problems...)
		if base.digest != res.digest {
			res.problem("output digest %s with -trace differs from %s without", res.digest, base.digest)
		}
		if base.headlineMS > 0 {
			res.set("host.trace_overhead_ratio", res.headlineMS/base.headlineMS)
			res.note("host.trace_overhead_ratio", "headline time traced %.3f ms ÷ untraced %.3f ms", res.headlineMS, base.headlineMS)
		}
	} else if err := kept[0].measure(budget, nil, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	if err := checkGolden(cfg, res); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	res.set("ops_failed_share", share)
	res.note("ops_failed_share", "%d failed of %d attempted", res.failed, res.attempted)

	if tr != nil {
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		printSelfTimes(stdout, tr, path)
	}
	if err := res.finite(); err != nil {
		res.problem("%v", err)
	}
	return report(m, cfg, res, stdout)
}

// report prints every measured number and assembles the contract's last line:
// every end-to-end metric on an untraced run, every per-layer metric on a
// traced one.
func report(m *manifest, cfg *runConfig, res *result, stdout io.Writer) (*output, error) {
	declared := map[string]metricDecl{}
	for _, d := range m.EndToEnd {
		declared[d.Name] = d
	}
	for _, d := range m.PerLayer {
		declared[d.Name] = d
	}
	for _, name := range res.names() {
		d, ok := declared[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
		line := fmt.Sprintf("%-42s %16.6g %-8s", name, res.values[name], d.Unit)
		if note := res.notes[name]; note != "" {
			line += " # " + note
		}
		fmt.Fprintln(stdout, line)
	}
	sort.Strings(res.problems)
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "INCORRECT:", p)
	}

	out := &output{
		Correct:   len(res.problems) == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	decls := m.EndToEnd
	if cfg.trace {
		decls = m.PerLayer
	}
	for _, d := range decls {
		v, ok := res.values[d.Name]
		if !ok {
			v = standIn(d, cfg.trace, res.headlineMS)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// standIn is the value of a slot that does not apply to the workload. Every
// run must print every declared metric; a per-layer slot may read 0, but an
// end-to-end one may never be 0 and, if it is a time, may not read the same on
// every run. So a rate or size slot carries the constant 1 and a time slot
// carries the workload's own headline time. README.md lists which slots apply
// to which workload.
func standIn(d metricDecl, perLayer bool, headlineMS float64) float64 {
	if perLayer {
		return 0
	}
	switch d.Unit {
	case "ms":
		return headlineMS
	case "s":
		return headlineMS / 1e3
	}
	return 1
}

func printSelfTimes(stdout io.Writer, tr *tracer, path string) {
	self, coverage := tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "trace: %s\n", path)
	for _, k := range names {
		fmt.Fprintf(stdout, "trace: self time %-24s %10.4f s\n", k, self[k])
	}
	if len(coverage) > 0 {
		fmt.Fprintf(stdout, "trace: child spans explain min %.1f%% median %.1f%% of each repetition's wall time\n",
			100*stats.Percentile(coverage, 0), 100*stats.Median(coverage))
	}
}
