package slurm

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
)

// refParseConfig is ParseConfig as it was before the key table: one case per
// key, each with its own parse. FuzzParseConfig holds the table to it: an
// input both accept parses to the same Config, and the table accepts
// nothing it refuses. The range rules are shared (both end in Validate);
// what the table refuses beyond it is a non-finite or out-of-range
// wall-clock duration, a non-finite partition MaxTime and a non-integer
// MaxNodes, which this parse truncates or lets overflow.
func refParseConfig(r io.Reader) (Config, error) {
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
			cfg.Share.Enabled, err = refParseYesNo(rest)
		case "MinComplementarity":
			cfg.Share.MinComplementarity, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "MinEstimatedRate":
			cfg.Share.MinEstimatedRate, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "MaxShareDegree":
			cfg.Share.MaxDegree, err = strconv.Atoi(strings.TrimSpace(rest))
		case "PairingAware":
			cfg.Share.PairingAware, err = refParseYesNo(rest)
		case "InflationAccounting":
			cfg.Share.InflationAccounting, err = refParseYesNo(rest)
		case "PreferShared":
			cfg.Share.PreferShared, err = refParseYesNo(rest)
		case "NodeName":
			cfg.Machine, err = parseNodeLine(rest)
			sawNodes = err == nil
		case "PartitionName":
			cfg.Partition, err = refParsePartitionLine(rest)
		case "PriorityWeightAge":
			cfg.Priority.WeightAge, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityWeightJobSize":
			cfg.Priority.WeightJobSize, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityWeightFairshare":
			cfg.Priority.WeightFairshare, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		case "PriorityFavorSmall":
			cfg.Priority.FavorSmall, err = refParseYesNo(rest)
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
			cfg.Overload.RetryAfter, err = refParseSeconds(rest)
		case "BreakerThreshold":
			cfg.Overload.BreakerThreshold, err = strconv.Atoi(strings.TrimSpace(rest))
		case "BreakerCooldown":
			cfg.Overload.BreakerCooldown, err = refParseSeconds(rest)
		case "HistoryLimit":
			cfg.Overload.HistoryLimit, err = strconv.Atoi(strings.TrimSpace(rest))
		case "ShedTargetLatency":
			cfg.Overload.ShedTarget, err = refParseSeconds(rest)
		case "ShedWindow":
			cfg.Overload.ShedWindow, err = refParseSeconds(rest)
		case "BrownoutStepAfter":
			cfg.Overload.BrownoutStep, err = refParseSeconds(rest)
		case "BrownoutCooldown":
			cfg.Overload.BrownoutCooldown, err = refParseSeconds(rest)
		case "BrownoutHistoryLimit":
			cfg.Overload.BrownoutHistoryLimit, err = strconv.Atoi(strings.TrimSpace(rest))
		case "BrownoutStaleSeconds":
			cfg.Overload.BrownoutStaleFor, err = refParseSeconds(rest)
		case "ReplicaAddr":
			cfg.HA.Replica = strings.TrimSpace(rest)
		case "HALeaseSeconds":
			cfg.HA.Lease, err = refParseSeconds(rest)
		case "HAHeartbeatSeconds":
			cfg.HA.Heartbeat, err = refParseSeconds(rest)
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

// refParseSeconds reads a duration key's value, fractional seconds.
func refParseSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return time.Duration(v * float64(time.Second)), err
}

func refParseYesNo(s string) (bool, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "YES":
		return true, nil
	case "NO":
		return false, nil
	default:
		return false, fmt.Errorf("want YES or NO, got %q", s)
	}
}

// refParsePartitionLine parses "batch MaxTime=86400 MaxNodes=16".
func refParsePartitionLine(rest string) (Partition, error) {
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
