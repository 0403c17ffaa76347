package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/des"
)

// loadThreads is GOMAXPROCS, the number of load-generating goroutines and the
// number of connections: never more than the machine has processors, and never
// more than four so a run on a large host stays comparable.
func loadThreads() int {
	return min(runtime.NumCPU(), 4)
}

// yardstick is the des tick loop of the root BenchmarkEventKernel: the
// cheapest thing the simulator does, timed on this host so nanoseconds from
// different machines can be normalised against it.
type yardstick struct {
	nsPerEvent     float64
	allocsPerEvent float64
}

func runYardstick(events int) yardstick {
	s := des.NewSimulator()
	n := 0
	var tick des.Handler
	tick = func(sim *des.Simulator) {
		n++
		if n < events {
			sim.ScheduleIn(1, tick)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s.Schedule(0, tick)
	s.RunAll()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return yardstick{
		nsPerEvent:     float64(elapsed.Nanoseconds()) / float64(events),
		allocsPerEvent: float64(after.Mallocs-before.Mallocs) / float64(events),
	}
}

// hostWarmUp is how long a run keeps a processor busy before it times
// anything. After the sandbox has idled — and a controller workload, which
// mostly sleeps in the fsync model, counts as idle — the reference host runs
// the yardstick at half speed for about 1.4 s. Without this the first
// set-ups of a run, and so setup_s, depend on which workload ran before it.
const hostWarmUp = 1500 * time.Millisecond

func warmHost(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runYardstick(200_000)
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
