package slurm

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

const sampleConf = `
# trinity-sim cluster
ClusterName=trinity-sim
SchedulerType=sched/share_backfill
OverSubscribe=YES
MinComplementarity=0.4
MaxShareDegree=2
PairingAware=YES
InflationAccounting=YES
PreferShared=YES
NodeName=nid[001-032] CPUs=64 ThreadsPerCore=2 RealMemory=131072
PartitionName=batch MaxTime=86400 MaxNodes=16
PriorityWeightAge=1000
PriorityWeightJobSize=100
PriorityFavorSmall=NO
PriorityMaxAge=604800
`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(sampleConf))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClusterName != "trinity-sim" {
		t.Errorf("ClusterName = %q", cfg.ClusterName)
	}
	if cfg.Policy != "sharebackfill" {
		t.Errorf("Policy = %q", cfg.Policy)
	}
	if cfg.Machine.Nodes != 32 {
		t.Errorf("Nodes = %d", cfg.Machine.Nodes)
	}
	// SLURM CPUs are hardware threads: 64 CPUs / 2 threads = 32 cores.
	if cfg.Machine.CoresPerNode != 32 || cfg.Machine.ThreadsPerCore != 2 {
		t.Errorf("cores/threads = %d/%d", cfg.Machine.CoresPerNode, cfg.Machine.ThreadsPerCore)
	}
	if cfg.Machine.MemoryPerNodeMB != 131072 {
		t.Errorf("memory = %d", cfg.Machine.MemoryPerNodeMB)
	}
	if !cfg.Share.Enabled || cfg.Share.MinComplementarity != 0.4 || cfg.Share.MaxDegree != 2 {
		t.Errorf("share config = %+v", cfg.Share)
	}
	if cfg.Partition.Name != "batch" || float64(cfg.Partition.MaxTime) != 86400 || cfg.Partition.MaxNodes != 16 {
		t.Errorf("partition = %+v", cfg.Partition)
	}
	if cfg.Priority.WeightAge != 1000 || cfg.Priority.WeightJobSize != 100 || cfg.Priority.FavorSmall {
		t.Errorf("priority = %+v", cfg.Priority)
	}
}

func TestParseConfigErrors(t *testing.T) {
	base := "NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n"
	cases := map[string]string{
		"no nodes":        "ClusterName=x\n",
		"bad line":        base + "not-a-kv\n",
		"unknown key":     base + "Bogus=1\n",
		"bad scheduler":   base + "SchedulerType=sched/nope\n",
		"bad yesno":       base + "OverSubscribe=MAYBE\n",
		"bad float":       base + "MinComplementarity=abc\n",
		"bad node attr":   "NodeName=n[1-4] CPUs=8 Frobnicate=2\n",
		"no cpus":         "NodeName=n[1-4] ThreadsPerCore=2 RealMemory=1024\n",
		"indivisible":     "NodeName=n[1-4] CPUs=7 ThreadsPerCore=2 RealMemory=1024\n",
		"inverted range":  "NodeName=n[9-3] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n",
		"empty partition": base + "PartitionName=\n",
		"bad partition":   base + "PartitionName=batch MaxTime=abc\n",
		"neg priority":    base + "PriorityWeightAge=-5\n",
		"neg retries":     base + "FaultMaxRetries=-1\n",
		"neg backoff":     base + "FaultBackoff=-1\n",
		"zero shape":      base + "FaultMTBF=100\nFaultMTTR=10\nFaultShape=0\n",
		"inf repair":      base + "FaultMTBF=100\nFaultMTTR=+Inf\n",
		"tiny shape":      base + "FaultMTBF=100000\nFaultMTTR=900\nFaultShape=0.001\n",
		"huge backoff":    base + "FaultBackoff=1e300\n",
	}
	for name, input := range cases {
		if _, err := ParseConfig(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Absent fault keys are fault.Defaults(); a key set to zero is zero: no
// retries, no backoff, seed 0.
func TestParseConfigFaultKeys(t *testing.T) {
	base := "NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n"
	plain, err := ParseConfig(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fault != fault.Defaults() || plain.Fault.Active() {
		t.Errorf("fault config without keys = %+v", plain.Fault)
	}
	zeros, err := ParseConfig(strings.NewReader(base +
		"FaultMTBF=100\nFaultMTTR=10\nFaultMaxRetries=0\nFaultBackoff=0\nFaultSeed=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := fault.Config{MTBF: 100, MTTR: 10, Shape: 1}
	if zeros.Fault != want {
		t.Errorf("fault config = %+v, want %+v", zeros.Fault, want)
	}
}

func TestParseConfigOverload(t *testing.T) {
	base := "NodeName=n[1-4] CPUs=8 ThreadsPerCore=2 RealMemory=1024\n"
	cfg, err := ParseConfig(strings.NewReader(base +
		"MaxClientConns=256\nMaxInflight=32\n" +
		"RateLimitPerConn=100\nRateLimitBurst=10\nRateLimitControlCost=0.05\n" +
		"BusyRetryAfter=0.25\nBreakerThreshold=5\nBreakerCooldown=10\nHistoryLimit=1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.Overload
	if o.MaxConns != 256 || o.MaxInflight != 32 {
		t.Errorf("conns/inflight = %d/%d", o.MaxConns, o.MaxInflight)
	}
	if o.RateLimit != 100 || o.RateBurst != 10 || o.ControlCost != 0.05 {
		t.Errorf("rate limit = %+v", o)
	}
	if o.RetryAfter != 250*time.Millisecond {
		t.Errorf("RetryAfter = %v", o.RetryAfter)
	}
	if o.BreakerThreshold != 5 || o.BreakerCooldown != 10*time.Second {
		t.Errorf("breaker = %d/%v", o.BreakerThreshold, o.BreakerCooldown)
	}
	if o.HistoryLimit != 1000 {
		t.Errorf("HistoryLimit = %d", o.HistoryLimit)
	}
	// Without any of the keys, the overload layer stays entirely disabled —
	// the byte-compatibility guarantee hangs off this zero value.
	plain, err := ParseConfig(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Overload != (OverloadConfig{}) {
		t.Errorf("overload defaults non-zero: %+v", plain.Overload)
	}

	for name, input := range map[string]string{
		"neg conns":        base + "MaxClientConns=-1\n",
		"neg inflight":     base + "MaxInflight=-2\n",
		"neg rate":         base + "RateLimitPerConn=-3\n",
		"big control cost": base + "RateLimitControlCost=2.5\n",
		"neg retry after":  base + "BusyRetryAfter=-0.5\n",
		"neg threshold":    base + "BreakerThreshold=-1\n",
		"neg history":      base + "HistoryLimit=-10\n",
	} {
		if _, err := ParseConfig(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseConfigSingleNode(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(
		"NodeName=login CPUs=4 ThreadsPerCore=1 RealMemory=2048\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine.Nodes != 1 || cfg.Machine.CoresPerNode != 4 {
		t.Fatalf("machine = %+v", cfg.Machine)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerTypeMapping(t *testing.T) {
	for st, want := range schedulerTypes {
		conf := "SchedulerType=" + st + "\nNodeName=n[1-2] CPUs=4 ThreadsPerCore=2 RealMemory=1024\n"
		cfg, err := ParseConfig(strings.NewReader(conf))
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if cfg.Policy != want {
			t.Errorf("%s → %q, want %q", st, cfg.Policy, want)
		}
	}
}

// The shipped configuration file must parse, validate, and describe the
// evaluated system.
func TestShippedTrinityConfig(t *testing.T) {
	f, err := os.Open("../../configs/trinity.conf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClusterName != "trinity-sim" || cfg.Policy != "sharebackfill" {
		t.Fatalf("shipped config = %q/%q", cfg.ClusterName, cfg.Policy)
	}
	if cfg.Machine.Nodes != 32 || cfg.Machine.CoresPerNode != 32 || cfg.Machine.ThreadsPerCore != 2 {
		t.Fatalf("shipped machine = %+v", cfg.Machine)
	}
	if _, err := NewController(cfg); err != nil {
		t.Fatalf("shipped config cannot boot: %v", err)
	}
}

// The shipped overload configuration enables every protection knob and
// still boots.
func TestShippedOverloadConfig(t *testing.T) {
	f, err := os.Open("../../configs/trinity-overload.conf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.Overload
	if o.MaxConns == 0 || o.MaxInflight == 0 || o.RateLimit == 0 ||
		o.BreakerThreshold == 0 || o.HistoryLimit == 0 {
		t.Fatalf("shipped overload config leaves protections disabled: %+v", o)
	}
	if _, err := NewController(cfg); err != nil {
		t.Fatalf("shipped overload config cannot boot: %v", err)
	}
}
