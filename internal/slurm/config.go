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
	"math"
	"regexp"
	"slices"
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
// pairs, and NodeName/PartitionName lines carrying attribute lists. A value
// out of its range is refused by the type that owns it (noted below); the
// error names the key and the line that set it.
//
// Recognized keys (unknown keys are an error so typos surface):
//
//	ClusterName=<string>
//	SchedulerType=sched/{builtin,firstfit,backfill,backfill_conservative,
//	                     share_firstfit,share_backfill,
//	                     share_backfill_conservative}
//	OverSubscribe=YES|NO
//	MinComplementarity=<float>         (sharing extension; finite)
//	MinEstimatedRate=<float>           (sharing extension; finite)
//	MaxShareDegree=<int>               (sharing extension; ≥ 1 with
//	                                    OverSubscribe on)
//	PairingAware=YES|NO                (sharing extension)
//	InflationAccounting=YES|NO         (sharing extension)
//	PreferShared=YES|NO                (sharing extension)
//	NodeName=<name|name[lo-hi]> CPUs=<int> ThreadsPerCore=<int> RealMemory=<MB>
//	PartitionName=<name> [MaxTime=<seconds>] [MaxNodes=<int>]
//	                                   (finite MaxTime, integer MaxNodes,
//	                                    neither negative)
//	PriorityWeightAge=<float>          (weights finite, non-negative)
//	PriorityWeightJobSize=<float>
//	PriorityWeightFairshare=<float>
//	PriorityFavorSmall=YES|NO
//	PriorityMaxAge=<seconds>           (positive, finite)
//	FaultMTBF=<seconds>                (fault injection: mean time between
//	                                    per-node failures; 0 or +Inf = off)
//	FaultMTTR=<seconds>                (mean time to repair; in (0, 1e9]
//	                                    with failures on)
//	FaultShape=<float>                 (Weibull time-to-failure shape;
//	                                    default 1 = exponential)
//	JobCrashProb=<float>               (per-attempt crash probability, [0,1])
//	FaultMaxRetries=<int>              (requeue budget before a job fails;
//	                                    default 3, 0 = none)
//	FaultBackoff=<seconds>             (base requeue backoff, doubling;
//	                                    default 30, 0 = none; ≤ 1e9)
//	FaultSeed=<uint>                   (failure-trace RNG seed; default 1)
//	MaxClientConns=<int>               (overload: concurrent connection cap;
//	                                    0 = unlimited)
//	MaxInflight=<int>                  (overload: concurrent in-flight
//	                                    request cap; 0 = unlimited)
//	RateLimitPerConn=<float>           (overload: per-connection requests
//	                                    per second; 0 = unlimited; finite)
//	RateLimitBurst=<float>             (overload: token bucket depth; finite)
//	RateLimitControlCost=<float>       (overload: token cost of control
//	                                    verbs, [0,1]; bulk verbs cost 1)
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
//
// A <seconds> key that fills a wall-clock duration (the overload, serve and
// HA keys) is refused unless it is finite and fits in int64 nanoseconds.
func ParseConfig(r io.Reader) (Config, error) {
	base := DefaultConfig()
	base.Machine = cluster.Config{} // must come from NodeName
	cfg := base
	var applied []keyLine
	sc := bufio.NewScanner(r)
	lineNo := 0
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
		kl := keyLine{strings.TrimSpace(key), strings.TrimSpace(rest), lineNo}
		set, known := confKeys[kl.key]
		if !known {
			return Config{}, fmt.Errorf("slurm: line %d: unknown key %q", lineNo, kl.key)
		}
		if err := set(&cfg, kl.value); err != nil {
			return Config{}, fmt.Errorf("slurm: line %d: %s: %w", lineNo, kl.key, err)
		}
		applied = append(applied, kl)
	}
	if err := sc.Err(); err != nil {
		return Config{}, fmt.Errorf("slurm: read: %w", err)
	}
	if !slices.ContainsFunc(applied, func(kl keyLine) bool { return kl.key == "NodeName" }) {
		return Config{}, fmt.Errorf("slurm: configuration has no NodeName line")
	}
	if err := cfg.Validate(); err != nil {
		// Name the last line without which the configuration is valid.
		for i := len(applied) - 1; i >= 0; i-- {
			without := base
			for j, kl := range applied {
				if j != i {
					confKeys[kl.key](&without, kl.value)
				}
			}
			if without.Validate() == nil {
				return Config{}, fmt.Errorf("slurm: line %d: %s: %w", applied[i].line, applied[i].key, err)
			}
		}
		return Config{}, err
	}
	return cfg, nil
}

// keyLine is one KEY=VALUE line ParseConfig applied.
type keyLine struct {
	key, value string
	line       int
}

// field is the setter of a key that fills the Config field get returns with
// parse's value; parse is the setter of the field's value type.
func field[T any](parse func(string) (T, error), get func(*Config) *T) func(*Config, string) error {
	return func(c *Config, v string) error {
		x, err := parse(v)
		*get(c) = x
		return err
	}
}

// confKeys is every key ParseConfig knows, with the field it fills.
var confKeys = map[string]func(c *Config, value string) error{
	"ClusterName":             field(text, func(c *Config) *string { return &c.ClusterName }),
	"SchedulerType":           field(schedulerType, func(c *Config) *string { return &c.Policy }),
	"OverSubscribe":           field(yesNo, func(c *Config) *bool { return &c.Share.Enabled }),
	"MinComplementarity":      field(float, func(c *Config) *float64 { return &c.Share.MinComplementarity }),
	"MinEstimatedRate":        field(float, func(c *Config) *float64 { return &c.Share.MinEstimatedRate }),
	"MaxShareDegree":          field(strconv.Atoi, func(c *Config) *int { return &c.Share.MaxDegree }),
	"PairingAware":            field(yesNo, func(c *Config) *bool { return &c.Share.PairingAware }),
	"InflationAccounting":     field(yesNo, func(c *Config) *bool { return &c.Share.InflationAccounting }),
	"PreferShared":            field(yesNo, func(c *Config) *bool { return &c.Share.PreferShared }),
	"NodeName":                field(parseNodeLine, func(c *Config) *cluster.Config { return &c.Machine }),
	"PartitionName":           field(parsePartitionLine, func(c *Config) *Partition { return &c.Partition }),
	"PriorityWeightAge":       field(float, func(c *Config) *float64 { return &c.Priority.WeightAge }),
	"PriorityWeightJobSize":   field(float, func(c *Config) *float64 { return &c.Priority.WeightJobSize }),
	"PriorityWeightFairshare": field(float, func(c *Config) *float64 { return &c.Priority.WeightFairshare }),
	"PriorityFavorSmall":      field(yesNo, func(c *Config) *bool { return &c.Priority.FavorSmall }),
	"PriorityMaxAge":          field(simSeconds, func(c *Config) *des.Duration { return &c.Priority.MaxAge }),
	"FaultMTBF":               field(float, func(c *Config) *float64 { return &c.Fault.MTBF }),
	"FaultMTTR":               field(float, func(c *Config) *float64 { return &c.Fault.MTTR }),
	"FaultShape":              field(float, func(c *Config) *float64 { return &c.Fault.Shape }),
	"JobCrashProb":            field(float, func(c *Config) *float64 { return &c.Fault.CrashProb }),
	"FaultMaxRetries":         field(strconv.Atoi, func(c *Config) *int { return &c.Fault.MaxRetries }),
	"FaultBackoff":            field(simSeconds, func(c *Config) *des.Duration { return &c.Fault.Backoff }),
	"FaultSeed":               field(unsigned, func(c *Config) *uint64 { return &c.Fault.Seed }),
	"MaxClientConns":          field(strconv.Atoi, func(c *Config) *int { return &c.Overload.MaxConns }),
	"MaxInflight":             field(strconv.Atoi, func(c *Config) *int { return &c.Overload.MaxInflight }),
	"RateLimitPerConn":        field(float, func(c *Config) *float64 { return &c.Overload.RateLimit }),
	"RateLimitBurst":          field(float, func(c *Config) *float64 { return &c.Overload.RateBurst }),
	"RateLimitControlCost":    field(float, func(c *Config) *float64 { return &c.Overload.ControlCost }),
	"BusyRetryAfter":          field(seconds, func(c *Config) *time.Duration { return &c.Overload.RetryAfter }),
	"BreakerThreshold":        field(strconv.Atoi, func(c *Config) *int { return &c.Overload.BreakerThreshold }),
	"BreakerCooldown":         field(seconds, func(c *Config) *time.Duration { return &c.Overload.BreakerCooldown }),
	"HistoryLimit":            field(strconv.Atoi, func(c *Config) *int { return &c.Overload.HistoryLimit }),
	"ShedTargetLatency":       field(seconds, func(c *Config) *time.Duration { return &c.Overload.ShedTarget }),
	"ShedWindow":              field(seconds, func(c *Config) *time.Duration { return &c.Overload.ShedWindow }),
	"BrownoutStepAfter":       field(seconds, func(c *Config) *time.Duration { return &c.Overload.BrownoutStep }),
	"BrownoutCooldown":        field(seconds, func(c *Config) *time.Duration { return &c.Overload.BrownoutCooldown }),
	"BrownoutHistoryLimit":    field(strconv.Atoi, func(c *Config) *int { return &c.Overload.BrownoutHistoryLimit }),
	"BrownoutStaleSeconds":    field(seconds, func(c *Config) *time.Duration { return &c.Overload.BrownoutStaleFor }),
	"ReplicaAddr":             field(text, func(c *Config) *string { return &c.HA.Replica }),
	"HALeaseSeconds":          field(seconds, func(c *Config) *time.Duration { return &c.HA.Lease }),
	"HAHeartbeatSeconds":      field(seconds, func(c *Config) *time.Duration { return &c.HA.Heartbeat }),
	"JournalCorruptPolicy":    field(corruptPolicy, func(c *Config) *CorruptPolicy { return &c.JournalCorruptPolicy }),
}

// The setters, one per value type; each gets the value trimmed.

func text(s string) (string, error) { return s, nil }

func yesNo(s string) (bool, error) {
	switch strings.ToUpper(s) {
	case "YES":
		return true, nil
	case "NO":
		return false, nil
	}
	return false, fmt.Errorf("want YES or NO, got %q", s)
}

func unsigned(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }

func float(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// simSeconds is simulated time in seconds.
func simSeconds(s string) (des.Duration, error) {
	v, err := float(s)
	return des.Duration(v), err
}

// seconds is a wall-clock duration in fractional seconds.
func seconds(s string) (time.Duration, error) {
	v, err := float(s)
	ns := v * float64(time.Second)
	if err == nil && !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		err = fmt.Errorf("%s seconds is not a finite duration under %d s", s, math.MaxInt64/int64(time.Second))
	}
	return time.Duration(ns), err
}

func schedulerType(s string) (string, error) {
	if pol, ok := schedulerTypes[s]; ok {
		return pol, nil
	}
	return "", fmt.Errorf("unknown scheduler %q", s)
}

func corruptPolicy(s string) (CorruptPolicy, error) {
	p := CorruptPolicy(strings.ToLower(s))
	return p, p.Validate()
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
	if !(o.RateLimit >= 0 && o.RateBurst >= 0 && o.ControlCost >= 0) ||
		math.IsInf(o.RateLimit, 1) || math.IsInf(o.RateBurst, 1) {
		return fmt.Errorf("slurm: rate limit parameters (%g, %g, %g) must be finite and non-negative",
			o.RateLimit, o.RateBurst, o.ControlCost)
	}
	if o.ControlCost > 1 { // +Inf too
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
			if math.IsNaN(n) || math.IsInf(n, 0) {
				return Partition{}, fmt.Errorf("partition MaxTime %s is not finite", v)
			}
			p.MaxTime = des.Duration(n)
		case "MaxNodes":
			if n != math.Trunc(n) || math.Abs(n) >= math.MaxInt64 {
				return Partition{}, fmt.Errorf("partition MaxNodes %s is not an integer", v)
			}
			p.MaxNodes = int(n)
		default:
			return Partition{}, fmt.Errorf("unknown partition attribute %q", k)
		}
	}
	return p, nil
}
