// Package slurm is the SLURM-like workload-manager layer: a slurm.conf-style
// configuration format, multifactor job priority, a controller that fields
// interactive submissions, and a line-oriented network protocol with
// sbatch/squeue/sinfo-style tooling on top.
//
// The paper implements its strategies inside the real SLURM; this package is
// the from-scratch substitute (DESIGN.md §1): it reproduces the operational
// surface — configuration, priorities, submission, queue introspection —
// while time is simulated, so experiments run in milliseconds and the
// scheduling behaviour is exactly the policies under study.
package slurm

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/sched"
)

// Config is the parsed workload-manager configuration.
type Config struct {
	// ClusterName labels the instance.
	ClusterName string
	// Machine is the node inventory.
	Machine cluster.Config
	// Policy is the scheduling policy registry name, mapped from
	// SchedulerType (see schedulerTypes).
	Policy string
	// Share tunes the sharing policies (populated from OverSubscribe and
	// the extension keys).
	Share sched.ShareConfig
	// Partition is the single partition (the evaluated systems schedule
	// one homogeneous partition).
	Partition Partition
	// Priority configures the multifactor priority plugin.
	Priority PriorityConfig
	// Fault configures fault injection (populated from the Fault* keys and
	// JobCrashProb, over fault.Defaults()): any positive failure rate turns
	// it on.
	Fault fault.Config
	// Overload configures admission control and graceful degradation for
	// the protocol server and controller (populated from MaxClientConns,
	// MaxInflight, RateLimit*, Busy*, Breaker*, and HistoryLimit keys).
	// The zero value disables every overload feature, keeping protocol
	// behaviour and journal format byte-compatible with earlier releases.
	Overload OverloadConfig
	// HA configures the controller pair (populated from ReplicaAddr,
	// HALeaseSeconds, HAHeartbeatSeconds). The zero value — no replication
	// keys in slurm.conf — disables HA, keeping the wire protocol and
	// journal format byte-compatible with standalone releases.
	HA HAConfig
	// JournalCorruptPolicy selects what recovery does with a journal or
	// snapshot record that fails checksum verification mid-log: refuse to
	// start (FAIL, the default) or salvage the committed prefix, quarantine
	// the damage, and run read-only DEGRADED (QUARANTINE). Torn journal
	// tails are always truncated and salvaged regardless of policy.
	JournalCorruptPolicy CorruptPolicy
}

// Partition is a job partition with admission limits.
type Partition struct {
	// Name identifies the partition, e.g. "batch".
	Name string
	// MaxTime caps requested walltimes (0 = unlimited).
	MaxTime des.Duration
	// MaxNodes caps node requests (0 = machine size).
	MaxNodes int
}

// schedulerTypes maps SLURM-style SchedulerType values to policy names.
var schedulerTypes = map[string]string{
	"sched/builtin":                     "fcfs",
	"sched/firstfit":                    "firstfit",
	"sched/backfill":                    "easy",
	"sched/backfill_conservative":       "conservative",
	"sched/share_firstfit":              "sharefirstfit",
	"sched/share_backfill":              "sharebackfill",
	"sched/share_backfill_conservative": "shareconservative",
}

// DefaultConfig returns the evaluated configuration: a 32-node Trinity-class
// partition under co-allocation-aware backfill.
func DefaultConfig() Config {
	return Config{
		ClusterName: "trinity-sim",
		Machine:     cluster.Trinity(32),
		Policy:      "sharebackfill",
		Share:       sched.DefaultShareConfig(),
		Partition:   Partition{Name: "batch"},
		Priority:    DefaultPriorityConfig(),
		Fault:       fault.Defaults(),
	}
}

var nodeRangeRe = regexp.MustCompile(`^([a-zA-Z_-]*)\[(\d+)-(\d+)\]$`)

// ParseConfig reads a slurm.conf-style stream: '#' comments, KEY=VALUE
// pairs, and NodeName/PartitionName lines carrying attribute lists.
//
// Recognized keys (unknown keys are an error so typos surface):
//
//	ClusterName=<string>
//	SchedulerType=sched/{builtin,firstfit,backfill,backfill_conservative,
//	                     share_firstfit,share_backfill,
//	                     share_backfill_conservative}
//	OverSubscribe=YES|NO
//	MinComplementarity=<float>         (sharing extension)
//	MinEstimatedRate=<float>           (sharing extension)
//	MaxShareDegree=<int>               (sharing extension)
//	PairingAware=YES|NO                (sharing extension)
//	InflationAccounting=YES|NO         (sharing extension)
//	PreferShared=YES|NO                (sharing extension)
//	NodeName=<name|name[lo-hi]> CPUs=<int> ThreadsPerCore=<int> RealMemory=<MB>
//	PartitionName=<name> [MaxTime=<seconds>] [MaxNodes=<int>]
//	PriorityWeightAge=<int>
//	PriorityWeightJobSize=<int>
//	PriorityWeightFairshare=<int>
//	PriorityFavorSmall=YES|NO
//	PriorityMaxAge=<seconds>
//	FaultMTBF=<seconds>                (fault injection: mean time between
//	                                    per-node failures; 0 = off)
//	FaultMTTR=<seconds>                (mean time to repair)
//	FaultShape=<float>                 (Weibull time-to-failure shape;
//	                                    default 1 = exponential)
//	JobCrashProb=<float>               (per-attempt crash probability)
//	FaultMaxRetries=<int>              (requeue budget before a job fails;
//	                                    default 3, 0 = none)
//	FaultBackoff=<seconds>             (base requeue backoff, doubling;
//	                                    default 30, 0 = none)
//	FaultSeed=<uint>                   (failure-trace RNG seed; default 1)
//	MaxClientConns=<int>               (overload: concurrent connection cap;
//	                                    0 = unlimited)
//	MaxInflight=<int>                  (overload: concurrent in-flight
//	                                    request cap; 0 = unlimited)
//	RateLimitPerConn=<float>           (overload: per-connection requests
//	                                    per second; 0 = unlimited)
//	RateLimitBurst=<float>             (overload: token bucket depth)
//	RateLimitControlCost=<float>       (overload: token cost of control
//	                                    verbs; bulk verbs cost 1)
//	BusyRetryAfter=<seconds>           (overload: retry-after hint attached
//	                                    to BUSY load-shedding responses)
//	BreakerThreshold=<int>             (overload: consecutive journal
//	                                    failures that trip DEGRADED mode;
//	                                    0 = breaker off)
//	BreakerCooldown=<seconds>          (overload: tripped-to-half-open wait)
//	HistoryLimit=<int>                 (overload: default cap on history
//	                                    rows per queue reply; 0 = unlimited)
//	ShedTargetLatency=<seconds>        (serve: EWMA service-latency target;
//	                                    sustained excess sheds low-priority
//	                                    verb classes; 0 = shedder off)
//	ShedWindow=<seconds>               (serve: sustained-pressure window of
//	                                    the shedder, both directions)
//	BrownoutStepAfter=<seconds>        (serve: pressure sustained this long
//	                                    climbs the brownout ladder one level;
//	                                    requires ShedTargetLatency; 0 = off)
//	BrownoutCooldown=<seconds>         (serve: quiet period before the ladder
//	                                    steps back down; 0 = 4x step)
//	BrownoutHistoryLimit=<int>         (serve: history-page cap at brownout
//	                                    level PAGED and above)
//	BrownoutStaleSeconds=<seconds>     (serve: snapshot-cache TTL at brownout
//	                                    level STALE and above)
//	ReplicaAddr=<host:port>            (HA: standby to stream journal
//	                                    entries to; absent = standalone)
//	HALeaseSeconds=<float>             (HA: failover lease; standby promotes
//	                                    after this long without a heartbeat,
//	                                    primary self-fences after half of it)
//	HAHeartbeatSeconds=<float>         (HA: replication heartbeat spacing;
//	                                    must be shorter than half the lease)
//	JournalCorruptPolicy=FAIL|QUARANTINE (storage: refuse to start on a
//	                                    corrupt journal record, or salvage
//	                                    the committed prefix and run
//	                                    read-only; default FAIL)
func ParseConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	cfg.Machine = cluster.Config{} // must come from NodeName
	sc := bufio.NewScanner(r)
	lineNo := 0
	sawNodes := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, ok := strings.Cut(line, "=")
		if !ok {
			return Config{}, fmt.Errorf("slurm: line %d: expected KEY=VALUE, got %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		var err error
		switch key {
		case "ClusterName":
			cfg.ClusterName = strings.TrimSpace(rest)
		case "SchedulerType":
			pol, known := schedulerTypes[strings.TrimSpace(rest)]
			if !known {
				return Config{}, fmt.Errorf("slurm: line %d: unknown SchedulerType %q", lineNo, rest)
			}
			cfg.Policy = pol
		case "OverSubscribe":
			cfg.Share.Enabled, err = parseYesNo(rest)
		case "MinComplementarity":
			cfg.Share.MinComplementarity, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "MinEstimatedRate":
			cfg.Share.MinEstimatedRate, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "MaxShareDegree":
			cfg.Share.MaxDegree, err = strconv.Atoi(strings.TrimSpace(rest))
		case "PairingAware":
			cfg.Share.PairingAware, err = parseYesNo(rest)
		case "InflationAccounting":
			cfg.Share.InflationAccounting, err = parseYesNo(rest)
		case "PreferShared":
			cfg.Share.PreferShared, err = parseYesNo(rest)
		case "NodeName":
			cfg.Machine, err = parseNodeLine(rest)
			sawNodes = err == nil
		case "PartitionName":
			cfg.Partition, err = parsePartitionLine(rest)
		case "PriorityWeightAge":
			cfg.Priority.WeightAge, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityWeightJobSize":
			cfg.Priority.WeightJobSize, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityWeightFairshare":
			cfg.Priority.WeightFairshare, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityFavorSmall":
			cfg.Priority.FavorSmall, err = parseYesNo(rest)
		case "PriorityMaxAge":
			var v float64
			v, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			cfg.Priority.MaxAge = des.Duration(v)
		case "FaultMTBF":
			cfg.Fault.MTBF, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "FaultMTTR":
			cfg.Fault.MTTR, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "FaultShape":
			cfg.Fault.Shape, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "JobCrashProb":
			cfg.Fault.CrashProb, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "FaultMaxRetries":
			cfg.Fault.MaxRetries, err = strconv.Atoi(strings.TrimSpace(rest))
		case "FaultBackoff":
			var v float64
			v, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			cfg.Fault.Backoff = des.Duration(v)
		case "FaultSeed":
			cfg.Fault.Seed, err = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		case "MaxClientConns":
			cfg.Overload.MaxConns, err = strconv.Atoi(strings.TrimSpace(rest))
		case "MaxInflight":
			cfg.Overload.MaxInflight, err = strconv.Atoi(strings.TrimSpace(rest))
		case "RateLimitPerConn":
			cfg.Overload.RateLimit, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "RateLimitBurst":
			cfg.Overload.RateBurst, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "RateLimitControlCost":
			cfg.Overload.ControlCost, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "BusyRetryAfter":
			cfg.Overload.RetryAfter, err = parseSeconds(rest)
		case "BreakerThreshold":
			cfg.Overload.BreakerThreshold, err = strconv.Atoi(strings.TrimSpace(rest))
		case "BreakerCooldown":
			cfg.Overload.BreakerCooldown, err = parseSeconds(rest)
		case "HistoryLimit":
			cfg.Overload.HistoryLimit, err = strconv.Atoi(strings.TrimSpace(rest))
		case "ShedTargetLatency":
			cfg.Overload.ShedTarget, err = parseSeconds(rest)
		case "ShedWindow":
			cfg.Overload.ShedWindow, err = parseSeconds(rest)
		case "BrownoutStepAfter":
			cfg.Overload.BrownoutStep, err = parseSeconds(rest)
		case "BrownoutCooldown":
			cfg.Overload.BrownoutCooldown, err = parseSeconds(rest)
		case "BrownoutHistoryLimit":
			cfg.Overload.BrownoutHistoryLimit, err = strconv.Atoi(strings.TrimSpace(rest))
		case "BrownoutStaleSeconds":
			cfg.Overload.BrownoutStaleFor, err = parseSeconds(rest)
		case "ReplicaAddr":
			cfg.HA.Replica = strings.TrimSpace(rest)
		case "HALeaseSeconds":
			cfg.HA.Lease, err = parseSeconds(rest)
		case "HAHeartbeatSeconds":
			cfg.HA.Heartbeat, err = parseSeconds(rest)
		case "JournalCorruptPolicy":
			cfg.JournalCorruptPolicy = CorruptPolicy(strings.ToLower(strings.TrimSpace(rest)))
			err = cfg.JournalCorruptPolicy.Validate()
		default:
			return Config{}, fmt.Errorf("slurm: line %d: unknown key %q", lineNo, key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("slurm: line %d: %s: %v", lineNo, key, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Config{}, fmt.Errorf("slurm: read: %w", err)
	}
	if !sawNodes {
		return Config{}, fmt.Errorf("slurm: configuration has no NodeName line")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration's internal consistency. The machine,
// the policy and the fault configuration are the engine's inputs, checked by
// the scenario the controller's engine is built from.
func (c Config) Validate() error {
	if err := c.scenario().Validate(); err != nil {
		return err
	}
	if c.Partition.Name == "" {
		return fmt.Errorf("slurm: partition has no name")
	}
	if c.Partition.MaxTime < 0 || c.Partition.MaxNodes < 0 {
		return fmt.Errorf("slurm: negative partition limits")
	}
	if err := c.Priority.Validate(); err != nil {
		return err
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	if err := c.HA.Validate(); err != nil {
		return err
	}
	if err := c.JournalCorruptPolicy.Validate(); err != nil {
		return err
	}
	return nil
}

// OverloadConfig tunes admission (admission.go), the journal circuit breaker
// and history paging. The zero value disables every feature, which keeps the
// protocol and journal byte-compatible with earlier releases.
type OverloadConfig struct {
	// MaxConns caps concurrent client connections (0 = unlimited). A
	// connection over the cap receives one BUSY response and is closed.
	MaxConns int
	// MaxInflight bounds requests being processed at once across all
	// connections (0 = unlimited); excess requests are refused with BUSY.
	MaxInflight int
	// RateLimit is the per-connection token refill rate in requests per
	// second (0 = unlimited).
	RateLimit float64
	// RateBurst is the token bucket depth; 0 selects max(2*RateLimit, 1).
	RateBurst float64
	// ControlCost is the token cost of control verbs (requeue, node state
	// changes, cancel); bulk verbs cost 1. 0 selects DefaultControlCost.
	ControlCost float64
	// RetryAfter is the wait hint in BUSY and SHED responses where the
	// limiter has no better estimate. 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// BreakerThreshold trips the journal circuit breaker after this many
	// consecutive append failures (0 = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects mutations
	// before going half-open. 0 selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// HistoryLimit caps JobInfo rows in one Queue(history=true) reply when
	// the client does not pass an explicit limit (0 = unlimited).
	HistoryLimit int
	// ShedTarget enables priority shedding: when the EWMA of recent service
	// latency holds above this target for a full ShedWindow, the lowest verb
	// class still admitted is shed. 0 disables priority shedding.
	ShedTarget time.Duration
	// ShedWindow is the sustained-pressure window of the shed level (and its
	// quiet window for stepping back down). 0 selects DefaultShedWindow.
	ShedWindow time.Duration
	// BrownoutStep enables the brownout ladder: pressure sustained this long
	// climbs the ladder one level. Requires ShedTarget (the ladder's
	// pressure signal is the shed level). 0 disables the ladder.
	BrownoutStep time.Duration
	// BrownoutCooldown is the quiet period required before the ladder steps
	// back down one level. 0 selects 4×BrownoutStep.
	BrownoutCooldown time.Duration
	// BrownoutHistoryLimit caps history paging at BrownoutPaged and above.
	// 0 selects DefaultBrownoutHistoryLimit.
	BrownoutHistoryLimit int
	// BrownoutStaleFor is the snapshot TTL at BrownoutStale and above.
	// 0 selects DefaultBrownoutStaleFor.
	BrownoutStaleFor time.Duration
}

// Validate checks the knobs for internal consistency.
func (o OverloadConfig) Validate() error {
	if o.MaxConns < 0 || o.MaxInflight < 0 || o.BreakerThreshold < 0 || o.HistoryLimit < 0 {
		return fmt.Errorf("slurm: negative overload limits")
	}
	if o.RateLimit < 0 || o.RateBurst < 0 || o.ControlCost < 0 {
		return fmt.Errorf("slurm: negative rate limit parameters")
	}
	if o.ControlCost > 1 {
		return fmt.Errorf("slurm: RateLimitControlCost %g > 1 would deprioritize control verbs", o.ControlCost)
	}
	if o.RetryAfter < 0 || o.BreakerCooldown < 0 {
		return fmt.Errorf("slurm: negative overload durations")
	}
	if o.ShedTarget < 0 || o.ShedWindow < 0 || o.BrownoutStep < 0 ||
		o.BrownoutCooldown < 0 || o.BrownoutStaleFor < 0 {
		return fmt.Errorf("slurm: negative shed/brownout durations")
	}
	if o.BrownoutHistoryLimit < 0 {
		return fmt.Errorf("slurm: negative BrownoutHistoryLimit")
	}
	if o.BrownoutStep > 0 && o.ShedTarget <= 0 {
		return fmt.Errorf("slurm: BrownoutStepAfter requires ShedTargetLatency (the ladder's pressure signal is the shedder)")
	}
	return nil
}

// parseSeconds reads a duration key's value, fractional seconds.
func parseSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return time.Duration(v * float64(time.Second)), err
}

func parseYesNo(s string) (bool, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "YES":
		return true, nil
	case "NO":
		return false, nil
	default:
		return false, fmt.Errorf("want YES or NO, got %q", s)
	}
}

// parseNodeLine parses "nid[001-032] CPUs=32 ThreadsPerCore=2
// RealMemory=131072" into a cluster config.
func parseNodeLine(rest string) (cluster.Config, error) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return cluster.Config{}, fmt.Errorf("empty NodeName line")
	}
	count, err := nodeCount(fields[0])
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{Nodes: count, ThreadsPerCore: 1}
	cpus := 0
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return cluster.Config{}, fmt.Errorf("bad node attribute %q", f)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("node attribute %s: %v", k, err)
		}
		switch k {
		case "CPUs":
			cpus = n
		case "ThreadsPerCore":
			cfg.ThreadsPerCore = n
		case "RealMemory":
			cfg.MemoryPerNodeMB = n
		default:
			return cluster.Config{}, fmt.Errorf("unknown node attribute %q", k)
		}
	}
	if cpus == 0 {
		return cluster.Config{}, fmt.Errorf("NodeName line missing CPUs")
	}
	if cfg.ThreadsPerCore <= 0 || cpus%cfg.ThreadsPerCore != 0 {
		return cluster.Config{}, fmt.Errorf("CPUs=%d not divisible by ThreadsPerCore=%d",
			cpus, cfg.ThreadsPerCore)
	}
	// SLURM's CPUs counts hardware threads; cores = CPUs / ThreadsPerCore.
	cfg.CoresPerNode = cpus / cfg.ThreadsPerCore
	return cfg, nil
}

// nodeCount derives the node count from a name or bracket range:
// "nid[001-032]" → 32, a plain name → 1.
func nodeCount(name string) (int, error) {
	m := nodeRangeRe.FindStringSubmatch(name)
	if m == nil {
		return 1, nil
	}
	lo, err := strconv.Atoi(m[2])
	if err != nil {
		return 0, err
	}
	hi, err := strconv.Atoi(m[3])
	if err != nil {
		return 0, err
	}
	if hi < lo {
		return 0, fmt.Errorf("node range %q is inverted", name)
	}
	return hi - lo + 1, nil
}

// parsePartitionLine parses "batch MaxTime=86400 MaxNodes=16".
func parsePartitionLine(rest string) (Partition, error) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Partition{}, fmt.Errorf("empty PartitionName line")
	}
	p := Partition{Name: fields[0]}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Partition{}, fmt.Errorf("bad partition attribute %q", f)
		}
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Partition{}, fmt.Errorf("partition attribute %s: %v", k, err)
		}
		switch k {
		case "MaxTime":
			p.MaxTime = des.Duration(n)
		case "MaxNodes":
			p.MaxNodes = int(n)
		default:
			return Partition{}, fmt.Errorf("unknown partition attribute %q", k)
		}
	}
	return p, nil
}
