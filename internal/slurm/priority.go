package slurm

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/job"
)

// PriorityConfig is the multifactor priority plugin's configuration,
// mirroring SLURM's priority/multifactor: a job's priority is a weighted sum
// of its normalized queue age and its normalized size.
type PriorityConfig struct {
	// WeightAge scales the age factor (age saturates at MaxAge).
	WeightAge float64
	// WeightJobSize scales the size factor.
	WeightJobSize float64
	// WeightFairshare scales the fairshare factor: 1 for a user who has
	// consumed nothing, falling toward 0 as the user's share of delivered
	// usage grows. Zero disables fairshare.
	WeightFairshare float64
	// FavorSmall inverts the size factor so small jobs rank first.
	FavorSmall bool
	// MaxAge is the age at which the age factor saturates at 1.
	MaxAge des.Duration
}

// DefaultPriorityConfig mirrors a common site setup: age-dominated with a
// mild large-job boost (keeps big jobs from starving behind small ones).
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{
		WeightAge:     1000,
		WeightJobSize: 100,
		FavorSmall:    false,
		MaxAge:        7 * des.Day,
	}
}

// Validate checks the plugin configuration.
func (c PriorityConfig) Validate() error {
	if c.WeightAge < 0 || c.WeightJobSize < 0 || c.WeightFairshare < 0 {
		return fmt.Errorf("slurm: negative priority weights (%g, %g, %g)",
			c.WeightAge, c.WeightJobSize, c.WeightFairshare)
	}
	if c.MaxAge <= 0 {
		return fmt.Errorf("slurm: priority MaxAge %v must be positive", c.MaxAge)
	}
	return nil
}

// UsageFn maps a user to their share of delivered usage in [0, 1]; the
// fairshare factor is 1 − share. A nil UsageFn disables the factor.
type UsageFn func(user string) float64

// Priority computes a job's multifactor priority at the given time on a
// machine with maxNodes nodes. Higher is more urgent.
func (c PriorityConfig) Priority(j *job.Job, now des.Time, maxNodes int) float64 {
	return c.PriorityWithUsage(j, now, maxNodes, nil)
}

// PriorityWithUsage additionally applies the fairshare factor from usage.
func (c PriorityConfig) PriorityWithUsage(j *job.Job, now des.Time, maxNodes int, usage UsageFn) float64 {
	age := float64(now-j.Submit) / float64(c.MaxAge)
	if age > 1 {
		age = 1
	}
	if age < 0 {
		age = 0
	}
	size := float64(j.Nodes) / float64(maxNodes)
	if size > 1 {
		size = 1
	}
	if c.FavorSmall {
		size = 1 - size
	}
	p := c.WeightAge*age + c.WeightJobSize*size
	if c.WeightFairshare > 0 && usage != nil {
		share := usage(j.User)
		if share < 0 {
			share = 0
		}
		if share > 1 {
			share = 1
		}
		p += c.WeightFairshare * (1 - share)
	}
	return p
}

// LessWithUsage returns a queue comparator: descending priority with FCFS
// tie-breaking, evaluated against a clock callback so age factors track
// simulated time, with fairshare usage from usage (nil disables the factor).
func (c PriorityConfig) LessWithUsage(now func() des.Time, maxNodes int, usage UsageFn) func(a, b *job.Job) bool {
	return func(a, b *job.Job) bool {
		t := now()
		pa := c.PriorityWithUsage(a, t, maxNodes, usage)
		pb := c.PriorityWithUsage(b, t, maxNodes, usage)
		if pa != pb {
			return pa > pb
		}
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	}
}
