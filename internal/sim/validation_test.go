package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// With single-node jobs, exponential runtimes, Poisson arrivals, and FCFS
// over c nodes, the batch system is exactly an M/M/c queue. The simulated
// mean wait must therefore match Erlang-C — an end-to-end validation of the
// event kernel, placement, and metric accounting against independent theory.
func TestValidation_MMcWaitMatchesErlangC(t *testing.T) {
	const (
		servers     = 8
		meanService = 100.0
		rho         = 0.8
		jobCount    = 40000
	)
	lambda := rho * servers / meanService
	q := mmc{Lambda: lambda, Mu: 1 / meanService, C: servers}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	want := q.MeanWait()

	// Queue waits at ρ=0.8 are strongly autocorrelated, so single runs
	// scatter ±20% around theory; average a few independent replications
	// and require the mean to land within 10%.
	var waits []float64
	for _, seed := range []uint64{1, 2, 3} {
		cfg := cluster.Config{Nodes: servers, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1 << 20}
		e := New(Config{Cluster: cfg, Policy: mustPolicy(t, "fcfs")})
		rng := des.NewRNG(seed)
		arrivals := rng.Stream("arrivals")
		services := rng.Stream("services")
		now := 0.0
		for i := 0; i < jobCount; i++ {
			now += arrivals.Exp(1 / lambda)
			runtime := services.Exp(meanService)
			if runtime < 1e-3 {
				runtime = 1e-3
			}
			j := &job.Job{
				ID: cluster.JobID(i + 1), Name: "mmc", App: computeApp, Nodes: 1,
				ReqWalltime: des.Duration(runtime), TrueRuntime: des.Duration(runtime),
				Submit: des.Time(now),
			}
			if err := e.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		e.RunAll()
		r := e.Result()
		if r.Finished != jobCount {
			t.Fatalf("finished %d of %d", r.Finished, jobCount)
		}
		waits = append(waits, r.Wait.Mean)
	}
	got := (waits[0] + waits[1] + waits[2]) / 3
	if math.Abs(got-want) > 0.10*want {
		t.Fatalf("simulated mean wait %.2fs (runs %v) deviates from Erlang-C %.2fs by more than 10%%",
			got, waits, want)
	}
}

// The same construction at c = 1 must match the closed-form M/M/1 wait —
// an independent second anchor at a different utilization.
func TestValidation_MM1WaitMatchesTheory(t *testing.T) {
	const (
		meanService = 50.0
		rho         = 0.7
		jobCount    = 40000
	)
	lambda := rho / meanService
	want := mm1Wait(lambda, 1/meanService)

	cfg := cluster.Config{Nodes: 1, CoresPerNode: 4, ThreadsPerCore: 2, MemoryPerNodeMB: 1 << 20}
	e := New(Config{Cluster: cfg, Policy: mustPolicy(t, "fcfs")})
	rng := des.NewRNG(777)
	arrivals := rng.Stream("arrivals")
	services := rng.Stream("services")
	now := 0.0
	for i := 0; i < jobCount; i++ {
		now += arrivals.Exp(1 / lambda)
		runtime := services.Exp(meanService)
		if runtime < 1e-3 {
			runtime = 1e-3
		}
		j := &job.Job{
			ID: cluster.JobID(i + 1), Name: "mm1", App: membwApp, Nodes: 1,
			ReqWalltime: des.Duration(runtime), TrueRuntime: des.Duration(runtime),
			Submit: des.Time(now),
		}
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	got := e.Result().Wait.Mean
	if math.Abs(got-want) > 0.10*want {
		t.Fatalf("simulated M/M/1 wait %.2fs deviates from theory %.2fs by more than 10%%",
			got, want)
	}
}

// mmc is an M/M/c queue: Poisson arrivals at rate lambda, exponential
// service at rate mu per server, c identical servers. Its analytic mean wait
// is the theory the validation tests above hold the simulator to.
type mmc struct {
	Lambda float64 // arrival rate (jobs per second)
	Mu     float64 // per-server service rate (1 / mean service time)
	C      int     // server count
}

// Validate checks the queue is stable and well formed.
func (q mmc) Validate() error {
	if q.Lambda <= 0 || q.Mu <= 0 || q.C <= 0 {
		return fmt.Errorf("mmc: non-positive parameters %+v", q)
	}
	if q.Utilization() >= 1 {
		return fmt.Errorf("mmc: unstable queue (ρ = %g ≥ 1)", q.Utilization())
	}
	return nil
}

// Utilization returns ρ = λ/(cµ).
func (q mmc) Utilization() float64 {
	return q.Lambda / (float64(q.C) * q.Mu)
}

// ErlangC returns the probability an arriving job must wait, C(c, a) with
// a = λ/µ the offered load. Computed with the numerically stable iterative
// form of the Erlang-B recurrence.
func (q mmc) ErlangC() float64 {
	a := q.Lambda / q.Mu
	// Erlang B by recurrence: B(0) = 1; B(k) = aB(k-1) / (k + aB(k-1)).
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Utilization()
	return b / (1 - rho + rho*b)
}

// MeanWait returns Wq, the expected time in queue.
func (q mmc) MeanWait() float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// mm1Wait returns the closed-form M/M/1 mean wait ρ/(µ−λ), an independent
// cross-check of the Erlang-C path for c = 1.
func mm1Wait(lambda, mu float64) float64 {
	if lambda <= 0 || mu <= 0 || lambda >= mu {
		panic(fmt.Sprintf("mm1Wait(%g, %g)", lambda, mu))
	}
	rho := lambda / mu
	return rho / (mu - lambda)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMMcValidate(t *testing.T) {
	good := mmc{Lambda: 1, Mu: 2, C: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []mmc{
		{Lambda: 0, Mu: 1, C: 1},
		{Lambda: 1, Mu: 0, C: 1},
		{Lambda: 1, Mu: 1, C: 0},
		{Lambda: 2, Mu: 1, C: 1}, // unstable
		{Lambda: 4, Mu: 1, C: 4}, // ρ = 1 exactly
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad queue %d accepted: %+v", i, q)
		}
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// Textbook values: c = 2, a = 1 (ρ = 0.5) → C ≈ 0.3333.
	q := mmc{Lambda: 1, Mu: 1, C: 2}
	if got := q.ErlangC(); !almost(got, 1.0/3, 1e-9) {
		t.Fatalf("ErlangC(2, 1) = %g, want 1/3", got)
	}
	// c = 1 reduces to ρ.
	q = mmc{Lambda: 0.7, Mu: 1, C: 1}
	if got := q.ErlangC(); !almost(got, 0.7, 1e-9) {
		t.Fatalf("ErlangC(1, 0.7) = %g, want 0.7", got)
	}
	// Large c, low load: waiting probability ≈ 0.
	q = mmc{Lambda: 1, Mu: 1, C: 64}
	if got := q.ErlangC(); got > 1e-10 {
		t.Fatalf("ErlangC(64, 1) = %g, want ≈0", got)
	}
}

func TestMM1Consistency(t *testing.T) {
	// The Erlang-C path at c = 1 must reproduce the closed-form M/M/1 wait.
	lambda, mu := 0.8, 1.0
	q := mmc{Lambda: lambda, Mu: mu, C: 1}
	if got, want := q.MeanWait(), mm1Wait(lambda, mu); !almost(got, want, 1e-9) {
		t.Fatalf("M/M/c wait %g ≠ M/M/1 wait %g", got, want)
	}
}

func TestMeanWaitPanicsOnUnstable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unstable MeanWait did not panic")
		}
	}()
	mmc{Lambda: 5, Mu: 1, C: 2}.MeanWait()
}

func TestMM1WaitPanics(t *testing.T) {
	for _, args := range [][2]float64{{0, 1}, {1, 0}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mm1Wait(%v) did not panic", args)
				}
			}()
			mm1Wait(args[0], args[1])
		}()
	}
}
