// Package workload generates the synthetic job streams the evaluation runs.
//
// The paper evaluates with NERSC Trinity mini applications submitted to a
// SLURM batch system; we have no site trace, so this package synthesizes
// submission streams with the standard ingredients of scheduling studies:
// Poisson or diurnal arrivals calibrated to an offered load, per-application
// log-normal runtimes, node counts drawn from each app's typical sizes, and
// the habitual user walltime overestimation. Generation is deterministic in
// the seed (DESIGN.md §6).
package workload

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// Arrival selects the submission process.
type Arrival int

// Arrival kinds.
const (
	// Batch submits every job at t=0 (closed workload; used for makespan
	// and scheduling-efficiency experiments).
	Batch Arrival = iota
	// Poisson submits with exponential interarrivals calibrated to Load.
	Poisson
	// DailyCycle modulates Poisson arrivals with a 24 h sine (day peaks,
	// night troughs), like production submission patterns.
	DailyCycle
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case Batch:
		return "batch"
	case Poisson:
		return "poisson"
	case DailyCycle:
		return "dailycycle"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// Mix is a weighted application blend.
type Mix struct {
	// Name labels the mix in experiment output.
	Name string
	// Apps are the component applications.
	Apps []app.Model
	// Weights are the relative submission frequencies (same length as
	// Apps, non-negative, positive sum).
	Weights []float64
}

// Validate checks mix consistency.
func (m Mix) Validate() error {
	if len(m.Apps) == 0 {
		return fmt.Errorf("workload: mix %q has no apps", m.Name)
	}
	if len(m.Apps) != len(m.Weights) {
		return fmt.Errorf("workload: mix %q has %d apps but %d weights",
			m.Name, len(m.Apps), len(m.Weights))
	}
	total := 0.0
	for i, w := range m.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("workload: mix %q weight[%d] = %g", m.Name, i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload: mix %q has zero total weight", m.Name)
	}
	for _, a := range m.Apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("workload: mix %q: %w", m.Name, err)
		}
	}
	return nil
}

// TrinityMix returns the full Trinity mini-app catalogue, equally weighted —
// the canonical mix of the evaluation.
func TrinityMix() Mix {
	apps := app.Catalogue()
	w := make([]float64, len(apps))
	for i := range w {
		w[i] = 1
	}
	return Mix{Name: "trinity", Apps: apps, Weights: w}
}

// CPUBoundMix returns a homogeneous compute-bound mix (miniMD, UMT, GTC) —
// the mix sharing helps least.
func CPUBoundMix() Mix {
	return subsetMix("cpubound", "minimd", "umt", "gtc")
}

// MemBoundMix returns a homogeneous bandwidth-bound mix (miniFE, AMG, MILC) —
// sharing clashes on memory bandwidth.
func MemBoundMix() Mix {
	return subsetMix("membound", "minife", "amg", "milc")
}

// CommMix returns a communication-leaning mix (miniGhost, MILC, AMG).
func CommMix() Mix {
	return subsetMix("comm", "minighost", "milc", "amg")
}

func subsetMix(name string, names ...string) Mix {
	m := Mix{Name: name}
	for _, n := range names {
		a, err := app.ByName(n)
		if err != nil {
			panic(err) // catalogue names are compile-time constants here
		}
		m.Apps = append(m.Apps, a)
		m.Weights = append(m.Weights, 1)
	}
	return m
}

// Mixes returns the named evaluation mixes.
func Mixes() []Mix {
	return []Mix{TrinityMix(), CPUBoundMix(), MemBoundMix(), CommMix()}
}

// MixByName returns the named mix.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}

// BindFlags defines the seven workload flags -nodes, -jobs, -mix, -arrival,
// -load, -scale and -seed on fs, each defaulting to s's value, so every
// command keeps its own defaults. Call the returned function after fs.Parse:
// it sets s's mix and arrival by name and its machine to cluster.Trinity of
// -nodes, then checks the spec with Validate.
func BindFlags(fs *flag.FlagSet, s *Spec) func() error {
	var mixes []string
	for _, m := range Mixes() {
		mixes = append(mixes, m.Name)
	}
	nodes := fs.Int("nodes", s.Cluster.Nodes, "machine size in Trinity nodes (also caps job sizes and calibrates the load)")
	mix := fs.String("mix", s.Mix.Name, "application mix: "+strings.Join(mixes, "|"))
	arrival := fs.String("arrival", s.Arrival.String(), "arrival process: batch|poisson|dailycycle")
	fs.IntVar(&s.Jobs, "jobs", s.Jobs, "number of jobs")
	fs.Float64Var(&s.Load, "load", s.Load, "offered load for open arrivals")
	fs.Float64Var(&s.RuntimeScale, "scale", s.RuntimeScale, "runtime scale (0.05 shrinks hours to minutes)")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "workload seed")
	return func() error {
		var err error
		if s.Mix, err = MixByName(*mix); err != nil {
			return err
		}
		if s.Arrival, err = arrivalByName(*arrival); err != nil {
			return err
		}
		s.Cluster = cluster.Trinity(*nodes)
		return s.Validate()
	}
}

// arrivalByName returns the arrival process of the given name (see String).
func arrivalByName(name string) (Arrival, error) {
	for _, a := range []Arrival{Batch, Poisson, DailyCycle} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown arrival %q", name)
}

// Spec parameterizes one generated workload.
type Spec struct {
	// Mix is the application blend.
	Mix Mix
	// Jobs is the number of jobs to generate.
	Jobs int
	// Arrival selects the submission process.
	Arrival Arrival
	// Load is the offered load (arrival rate × mean job demand / machine
	// capacity), in (0, 1e9] for Poisson and DailyCycle arrivals; ignored
	// for Batch.
	Load float64
	// Cluster provides machine capacity for load calibration and caps node
	// requests at the machine size.
	Cluster cluster.Config
	// OverestimateMin/Max bound the uniform walltime-request factor
	// (users request Overestimate × true runtime). Defaults 1.2–3.0.
	OverestimateMin, OverestimateMax float64
	// RuntimeScale multiplies every app's mean runtime (1 = catalogue
	// values); experiments shrink it to keep simulations fast without
	// changing workload shape. It has no default: zero is refused like any
	// other scale that is not positive and finite, so a caller that asks
	// for scale 0 never silently gets scale 1.
	RuntimeScale float64
	// Users, when positive, assigns each job a submitting user drawn from
	// a Zipf-like popularity distribution (user 1 submits most — the
	// skewed reality fairshare priorities exist for). Zero disables user
	// modelling.
	Users int
	// Seed drives all randomness.
	Seed uint64
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.OverestimateMin == 0 {
		s.OverestimateMin = 1.2
	}
	if s.OverestimateMax == 0 {
		s.OverestimateMax = 3.0
	}
	return s
}

// Validate checks spec consistency.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if err := s.Mix.Validate(); err != nil {
		return err
	}
	if s.Jobs <= 0 {
		return fmt.Errorf("workload: %d jobs", s.Jobs)
	}
	if err := s.Cluster.Validate(); err != nil {
		return err
	}
	// The comparisons are written so that NaN fails them, and each bound is
	// checked for finiteness: an infinite load is a zero mean inter-arrival
	// time.
	if s.Arrival != Batch && !(s.Load > 0 && s.Load <= maxLoad) {
		return fmt.Errorf("workload: open arrivals need a load in (0, %g], got %g", maxLoad, s.Load)
	}
	if !(s.OverestimateMin >= 1) || !(s.OverestimateMax >= s.OverestimateMin) || math.IsInf(s.OverestimateMax, 1) {
		return fmt.Errorf("workload: overestimate range [%g, %g]",
			s.OverestimateMin, s.OverestimateMax)
	}
	if !positiveFinite(s.RuntimeScale) {
		return fmt.Errorf("workload: runtime scale must be positive and finite, got %g", s.RuntimeScale)
	}
	// The values derived from load and scale can still underflow or
	// overflow: a scale of 1e-320 leaves no demand to calibrate against.
	if d := s.MeanJobDemand(); !positiveFinite(d) {
		return fmt.Errorf("workload: mean job demand %g node-seconds at runtime scale %g", d, s.RuntimeScale)
	}
	if s.Arrival != Batch && !positiveFinite(s.meanInterarrival()) {
		return fmt.Errorf("workload: load %g at runtime scale %g leaves a mean inter-arrival time of %g s",
			s.Load, s.RuntimeScale, s.meanInterarrival())
	}
	return nil
}

// maxLoad bounds the offered load of open arrivals.
const maxLoad = 1e9

// positiveFinite reports whether x is a number above zero and below +Inf.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// meanInterarrival calibrates the arrival rate so that offered load = Load:
// λ = Load × capacity / E[demand], capacity in node-seconds per second.
func (s Spec) meanInterarrival() float64 {
	return 1 / (s.Load * float64(s.Cluster.Nodes) / s.MeanJobDemand())
}

// MeanJobDemand returns the expected node-seconds per job of the spec's mix
// (used for load calibration).
func (s Spec) MeanJobDemand() float64 {
	s = s.withDefaults()
	total := 0.0
	wsum := 0.0
	for i, a := range s.Mix.Apps {
		w := s.Mix.Weights[i]
		nodes := 0.0
		for _, n := range a.TypicalNodes {
			if n > s.Cluster.Nodes {
				n = s.Cluster.Nodes
			}
			nodes += float64(n)
		}
		nodes /= float64(len(a.TypicalNodes))
		total += w * nodes * a.MeanRuntime * s.RuntimeScale
		wsum += w
	}
	return total / wsum
}

// Generate produces the job stream. Job IDs are 1..Jobs in submission order.
func Generate(spec Spec) ([]*job.Job, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := des.NewRNG(spec.Seed)
	arrivalRNG := root.Stream("arrivals")
	appRNG := root.Stream("apps")
	sizeRNG := root.Stream("sizes")
	runtimeRNG := root.Stream("runtimes")
	wallRNG := root.Stream("walltimes")
	userRNG := root.Stream("users")

	var userWeights []float64
	for u := 1; u <= spec.Users; u++ {
		userWeights = append(userWeights, 1/float64(u))
	}

	var meanInterarrival float64
	if spec.Arrival != Batch {
		meanInterarrival = spec.meanInterarrival()
	}

	jobs := make([]*job.Job, 0, spec.Jobs)
	now := 0.0
	for i := 0; i < spec.Jobs; i++ {
		a := spec.Mix.Apps[appRNG.Choice(spec.Mix.Weights)]

		nodes := a.TypicalNodes[sizeRNG.Intn(len(a.TypicalNodes))]
		if nodes > spec.Cluster.Nodes {
			nodes = spec.Cluster.Nodes
		}

		// Log-normal runtime with the app's mean and CV; floor at 60 s.
		m := a.MeanRuntime * spec.RuntimeScale
		sigma2 := math.Log(1 + a.RuntimeCV*a.RuntimeCV)
		mu := math.Log(m) - sigma2/2
		runtime := runtimeRNG.LogNormal(mu, math.Sqrt(sigma2))
		if runtime < 60 {
			runtime = 60
		}
		wall := runtime * wallRNG.Uniform(spec.OverestimateMin, spec.OverestimateMax)

		switch spec.Arrival {
		case Batch:
			// all at t=0
		case Poisson:
			now += arrivalRNG.Exp(meanInterarrival)
		case DailyCycle:
			// Thin a faster Poisson stream against the diurnal profile
			// rate(t) = λ(1 + 0.8·sin(2πt/day)) / normalization.
			for {
				now += arrivalRNG.Exp(meanInterarrival / 1.8)
				phase := 2 * math.Pi * math.Mod(now, float64(des.Day)) / float64(des.Day)
				accept := (1 + 0.8*math.Sin(phase)) / 1.8
				if arrivalRNG.Float64() < accept {
					break
				}
			}
		}

		user := ""
		if spec.Users > 0 {
			user = fmt.Sprintf("user%02d", userRNG.Choice(userWeights)+1)
		}

		j := &job.Job{
			ID:          cluster.JobID(i + 1),
			Name:        fmt.Sprintf("%s-%d", a.Name, i+1),
			User:        user,
			App:         a,
			Nodes:       nodes,
			ReqWalltime: des.Duration(wall),
			TrueRuntime: des.Duration(runtime),
			Submit:      des.Time(now),
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}
