package slurm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzParseConfig drives the slurm.conf parser with arbitrary input: it
// must never panic, must accept nothing refParseConfig refuses and parse
// what both accept to the same Config, and any configuration it accepts
// must validate and be able to boot a controller. The seeds include every
// shipped configuration.
func FuzzParseConfig(f *testing.F) {
	f.Add(sampleConf)
	f.Add("NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n")
	f.Add("# only a comment\n")
	f.Add("ClusterName=x\nNodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\n")
	f.Add("NodeName=n[001-999] CPUs=64 ThreadsPerCore=2 RealMemory=131072\nOverSubscribe=YES\n")
	f.Add("=")
	f.Add("NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n" +
		"FaultMTBF=86400\nFaultMTTR=900\nFaultShape=1.5\nJobCrashProb=0.02\n" +
		"FaultMaxRetries=3\nFaultBackoff=30\nFaultSeed=7\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nFaultMTBF=-1\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nJobCrashProb=1.5\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nFaultMTBF=100\nFaultMTTR=0\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nFaultSeed=18446744073709551615\n")
	f.Add("NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n" +
		"MaxClientConns=256\nMaxInflight=32\nRateLimitPerConn=100\nRateLimitBurst=10\n" +
		"RateLimitControlCost=0.1\nBusyRetryAfter=0.25\n" +
		"BreakerThreshold=5\nBreakerCooldown=5\nHistoryLimit=1000\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nMaxClientConns=-1\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nRateLimitPerConn=-3\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nRateLimitControlCost=2.5\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nBusyRetryAfter=-0.5\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nBreakerThreshold=1\nBreakerCooldown=0\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nHistoryLimit=9999999999999999999999\n")
	f.Add("NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n" +
		"ShedTargetLatency=0.02\nShedWindow=0.1\nBrownoutStepAfter=0.5\n" +
		"BrownoutCooldown=2\nBrownoutHistoryLimit=64\nBrownoutStaleSeconds=1\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nShedTargetLatency=-1\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nBrownoutStepAfter=0.5\n")
	f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nBrownoutHistoryLimit=-5\n")
	for _, line := range newlyRefused {
		f.Add("NodeName=n CPUs=2 ThreadsPerCore=1 RealMemory=64\nOverSubscribe=YES\n" + line + "\n")
	}
	confs, err := filepath.Glob("../../configs/*.conf")
	if err != nil || len(confs) == 0 {
		f.Fatalf("no shipped configurations: %v", err)
	}
	for _, path := range confs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, input string) {
		cfg, err := ParseConfig(strings.NewReader(input))
		ref, refErr := refParseConfig(strings.NewReader(input))
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("the key table accepts what the per-key switch refuses: %v", refErr)
		case err == nil && fmt.Sprintf("%+v", cfg) != fmt.Sprintf("%+v", ref): // as text, where NaN equals NaN
			t.Fatalf("the key table parses\n%+v\nthe per-key switch\n%+v", cfg, ref)
		case err != nil:
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails validation: %v", err)
		}
		// Keep the fuzz cheap: only boot plausibly-sized machines.
		if cfg.Machine.Nodes <= 1024 && cfg.Machine.CoresPerNode <= 256 {
			if _, err := NewController(cfg); err != nil {
				t.Fatalf("accepted config cannot boot a controller: %v", err)
			}
		}
	})
}

// FuzzDeadlineWire drives the deadline/priority wire surface with arbitrary
// JSON: whatever a hostile client puts in deadline_ms, op, or (as a server)
// retry_after_ms, the budget resolution, verb classing, and retry-after
// clamping must never panic, overflow into a huge wait, or mis-parse into a
// budget the arithmetic cannot handle.
func FuzzDeadlineWire(f *testing.F) {
	f.Add(`{"op":"queue","deadline_ms":100}`)
	f.Add(`{"op":"submit","deadline_ms":-1}`)
	f.Add(`{"op":"queue","deadline_ms":9223372036854775807}`)
	f.Add(`{"op":"queue","deadline_ms":-9223372036854775808}`)
	f.Add(`{"op":"health","deadline_ms":0}`)
	f.Add(`{"op":"","deadline_ms":1}`)
	f.Add("{\"op\":\"\x00weird\",\"deadline_ms\":42}")
	f.Add(`{"busy":true,"retry_after_ms":9223372036854775807}`)
	f.Add(`{"shed":true,"retry_after_ms":-5}`)
	f.Add(`{"deadline_exceeded":true,"error":"deadline exceeded: x"}`)
	f.Add(`{"op":"queue","deadline_ms":1e30}`)
	f.Add(`{"op":"queue","deadline_ms":"soon"}`)
	f.Fuzz(func(t *testing.T, line string) {
		now := time.Unix(1700000000, 0)

		var req Request
		if err := json.Unmarshal([]byte(line), &req); err == nil {
			b := requestBudget(req.DeadlineMS, now)
			// Whatever came off the wire, the resolved budget must be
			// arithmetic-safe: remaining() bounded by the clamp, expiry
			// queries valid at any probe time.
			if rem := b.remaining(now); rem > time.Duration(maxDeadlineMS)*time.Millisecond {
				t.Fatalf("deadline_ms %d resolved past the clamp: %v", req.DeadlineMS, rem)
			}
			b.expired(now)
			b.expired(now.Add(100 * time.Hour))
			if req.DeadlineMS < 0 && !b.expired(now) {
				t.Fatalf("negative deadline_ms %d not pre-expired", req.DeadlineMS)
			}
			// Verb classing is total: any op string lands in a real class.
			if c := verbClass(req.Op); c < classControl || c >= numClasses {
				t.Fatalf("verbClass(%q) = %d out of range", req.Op, c)
			}
		}

		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err == nil {
			// A hostile server's retry-after must clamp into [0, 60s]: never
			// negative, never parking the client forever.
			d := clampRetryAfterMS(resp.RetryAfterMS)
			if d < 0 || d > time.Minute {
				t.Fatalf("clampRetryAfterMS(%d) = %v outside [0, 1m]", resp.RetryAfterMS, d)
			}
		}
	})
}
