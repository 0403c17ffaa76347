package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs the workload twice, back to back, each in a process of its own
// (so peak memory is each run's own), and prints for every end-to-end metric
// both values, their relative difference and the regression bound. Two runs of
// the same code must agree within the bounds; if they do not, the benchmark —
// not the code — is what needs fixing.
func runAA(m *manifest, cfg *runConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", "0",
	}
	if cfg.short {
		args = append(args, "-short")
	}
	var runs [2]output
	for i := range runs {
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: run %d: %v\n%s", i+1, err, out.String())
			return 1
		}
		var last []byte
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		if err := json.Unmarshal(last, &runs[i]); err != nil {
			fmt.Fprintf(stderr, "benchmark: run %d: last line is not the result: %v\n", i+1, err)
			return 1
		}
	}

	code := 0
	fmt.Fprintf(stdout, "A/A %s seed %d, %g s per run\n", cfg.workload, cfg.seed, cfg.seconds)
	fmt.Fprintf(stdout, "%-22s %-6s %14s %14s %9s %7s\n", "metric", "unit", "run 1", "run 2", "worse by", "bound")
	for _, d := range m.EndToEnd {
		a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
		// How much worse the second run is than the first, as a share of the
		// first, in the metric's own direction.
		worse := (b - a) / a
		if d.Better == "higher" {
			worse = (a - b) / a
		}
		verdict := ""
		if worse > d.Bound || -worse > d.Bound {
			verdict = "  OUTSIDE BOUND"
			code = 1
		}
		fmt.Fprintf(stdout, "%-22s %-6s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", d.Name, d.Unit, a, b, 100*worse, 100*d.Bound, verdict)
	}
	return code
}
