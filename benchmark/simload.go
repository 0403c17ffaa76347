package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simLoad is one single-engine workload: generate a trace, build an engine,
// submit, run, read the result. sim_share_deep and sim_easy_light differ only
// in policy, load and length, which is what makes the same layers do very
// different amounts of work.
type simLoad struct {
	policy string
	load   float64
	jobs   int
}

// simTraces is how many traces a run cycles through. One overloaded trace's
// queue depth, and with it the run's speed, moves about ±10 % from seed to
// seed; the median over five traces drawn from the seed moves a third of that,
// which is what lets a 10 % regression bound mean something.
const simTraces = 5

type simInstance struct {
	simLoad
	cfg *runConfig
	// seeds are the trace seeds drawn from the run's seed.
	seeds []uint64
}

func (w simLoad) setUp(cfg *runConfig, res *result, traced bool) (instance, error) {
	if cfg.short {
		w.jobs = 200
	}
	if traced {
		iters := 50
		if cfg.short {
			iters = 2
		}
		if err := microLayers(res, iters); err != nil {
			return nil, err
		}
	}
	return newSimInstance(w, cfg), nil
}

func newSimInstance(w simLoad, cfg *runConfig) *simInstance {
	n := simTraces
	if cfg.short {
		n = 2
	}
	rng := des.NewRNG(cfg.seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Stream(fmt.Sprintf("trace-%d", i)).Uint64()
	}
	return &simInstance{simLoad: w, cfg: cfg, seeds: seeds}
}

func (s *simInstance) close() {}

// simRep is what one repetition measured.
type simRep struct {
	wall, gen, newSubmit, run, result time.Duration
	digest                            string
	mallocs, bytes                    uint64
	gcCycles                          uint32
	passes                            *passRecorder
	enginePassNS                      float64
	// hidesShare is set when the decorated policy does not show the engine the
	// ShareConfig its inner policy has.
	hidesShare bool
}

// rep runs the pipeline once on trace number trace of the run.
func (s *simInstance) rep(tr *tracer, rep, trace int) (simRep, error) {
	var out simRep
	machine := cluster.Trinity(128)
	root := tr.start(0, rep, "rep")

	t0 := time.Now()
	sp := tr.start(root.id, rep, "workload.generate")
	jobs, err := workload.Generate(workload.Spec{
		Mix: workload.TrinityMix(), Jobs: s.jobs, Arrival: workload.Poisson,
		Load: s.load, Cluster: machine, RuntimeScale: 0.05, Seed: s.seeds[trace],
	})
	sp.end(nil)
	if err != nil {
		return out, err
	}
	t1 := time.Now()

	sp = tr.start(root.id, rep, "sim.new_submit")
	pol, err := sched.New(s.policy, sched.DefaultShareConfig())
	if err != nil {
		return out, err
	}
	// The run span is opened now so the passes can name it as their parent;
	// its interval is restarted at RunAll below.
	runSpan := tr.start(root.id, rep, "sim.run")
	if tr != nil {
		out.passes = &passRecorder{inner: pol, tr: tr, parent: runSpan.id, rep: rep}
		inner := pol
		pol = out.passes.policy(s.cfg.inject == "hide-shareconfig")
		out.hidesShare = !forwardsShareConfig(inner, pol)
	}
	e := sim.New(sim.Config{Cluster: machine, Policy: pol})
	if err := e.SubmitAll(jobs); err != nil {
		return out, err
	}
	sp.end(nil)
	t2 := time.Now()

	// The two MemStats reads stop the world; they sit between the pipeline's
	// calls and belong to none of them.
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	runSpan.start = time.Now()
	e.RunAll()
	runEnd := time.Now()
	runSpan.end(nil)
	if tr != nil {
		runtime.ReadMemStats(&after)
		out.mallocs = after.Mallocs - before.Mallocs
		out.bytes = after.TotalAlloc - before.TotalAlloc
		out.gcCycles = after.NumGC - before.NumGC
	}

	resultStart := time.Now()
	sp = tr.start(root.id, rep, "sim.result")
	r := e.Result()
	sp.end(nil)
	resultEnd := time.Now()

	sp = tr.start(root.id, rep, "bench.check")
	if r.Finished != s.jobs {
		return out, fmt.Errorf("finished %d of %d jobs", r.Finished, s.jobs)
	}
	if err := r.Validate(); err != nil {
		return out, fmt.Errorf("result invalid: %w", err)
	}
	out.digest = simDigest(r, e.Finished())
	out.enginePassNS = r.DecisionNanos.Mean * float64(r.DecisionNanos.N)
	sp.end(nil)
	root.end(nil)

	out.gen, out.newSubmit = t1.Sub(t0), t2.Sub(t1)
	out.run, out.result = runEnd.Sub(runSpan.start), resultEnd.Sub(resultStart)
	out.wall = out.gen + out.newSubmit + out.run + out.result
	return out, nil
}

// simDigest hashes every simulated statistic of a run at full precision. The
// scheduler's wall-clock pass times are the one host-dependent field and are
// left out.
func simDigest(r metrics.Result, finished []*job.Job) string {
	r.DecisionNanos = stats.Summary{}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", r)
	for _, j := range finished {
		fmt.Fprintf(h, "%d %v %v\n", j.ID, j.StartTime(), j.EndTime())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *simInstance) measure(d time.Duration, tr *tracer, res *result) error {
	// One untimed warm-up precedes the timed repetitions. Each trace's first
	// digest is the reference every later repetition of that trace must equal.
	warm, err := s.rep(nil, 0, 0)
	if err != nil {
		return err
	}
	k := len(s.seeds)
	digests := make([]string, k)
	digests[0] = warm.digest
	reps := make([][]simRep, k)

	// The timed repetitions cycle through the traces, at least once through
	// all of them, then for as long as the budget lasts.
	start := time.Now()
	for n := 0; n < k || (time.Since(start) < d && !s.cfg.short); n++ {
		t := n % k
		r, err := s.rep(tr, n+1, t)
		if err != nil {
			return err
		}
		res.ops(1, 0)
		if digests[t] == "" {
			digests[t] = r.digest
		} else if r.digest != digests[t] {
			res.ops(0, 1)
			res.problem("repetition %d: simulated statistics digest %s differs from %s, an earlier run of the same trace", n+1, r.digest, digests[t])
		}
		if r.hidesShare {
			res.problem("repetition %d: the policy decorator hides ShareConfig() from the engine", n+1)
		}
		reps[t] = append(reps[t], r)
	}
	sum := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	res.digest, res.pinned = hex.EncodeToString(sum[:]), true

	// The run's repetition time is the mean over the traces of each trace's
	// median repetition.
	wall := s.perTrace(reps, func(r simRep) float64 { return r.wall.Seconds() })
	var all []float64
	count := 0
	for _, rs := range reps {
		count += len(rs)
		for _, r := range rs {
			all = append(all, r.wall.Seconds())
		}
	}
	res.set("sim_jobs_per_s", float64(s.jobs)/wall)
	res.note("sim_jobs_per_s", "%d jobs per repetition; wall s %.4f (mean over %d traces of the per-trace median), all repetitions q1 %.4f q3 %.4f; %d timed repetitions",
		s.jobs, wall, k, stats.Percentile(all, 25), stats.Percentile(all, 75), count)
	res.headlineMS = wall * 1e3
	if tr != nil {
		s.layers(reps, res)
	}
	return nil
}

// perTrace reduces one quantity over the run: the median across the
// repetitions of each trace, then the mean across traces. Counters that are
// exact per trace stay exact.
func (s *simInstance) perTrace(reps [][]simRep, f func(simRep) float64) float64 {
	total := 0.0
	for _, rs := range reps {
		total += medianOf(rs, f)
	}
	return total / float64(len(reps))
}

// layers reports the per-layer numbers of the traced repetitions, each reduced
// with perTrace.
func (s *simInstance) layers(reps [][]simRep, res *result) {
	med := func(f func(simRep) float64) float64 { return s.perTrace(reps, f) }
	jobs := float64(s.jobs)
	res.set("workload.generate_s", med(func(r simRep) float64 { return r.gen.Seconds() }))
	res.set("sim.new_submit_s", med(func(r simRep) float64 { return r.newSubmit.Seconds() }))
	res.set("sim.run_s", med(func(r simRep) float64 { return r.run.Seconds() }))
	res.set("sim.result_s", med(func(r simRep) float64 { return r.result.Seconds() }))
	res.set("sim.self_s", med(func(r simRep) float64 { return r.run.Seconds() - r.passes.total().Seconds() }))
	res.set("sim.allocs_per_job", med(func(r simRep) float64 { return float64(r.mallocs) / jobs }))
	res.set("sim.bytes_per_job", med(func(r simRep) float64 { return float64(r.bytes) / jobs }))
	res.set("sim.gc_cycles", med(func(r simRep) float64 { return float64(r.gcCycles) }))

	res.set("sched.passes", med(func(r simRep) float64 { return float64(len(r.passes.durs)) }))
	res.set("sched.pass_s_total", med(func(r simRep) float64 { return r.passes.total().Seconds() }))
	res.set("sched.decisions", med(func(r simRep) float64 { return float64(r.passes.decisions) }))
	res.set("sched.queue_depth_mean", med(func(r simRep) float64 {
		return float64(r.passes.depthSum) / float64(max(len(r.passes.durs), 1))
	}))
	res.set("sched.empty_pass_ratio", med(func(r simRep) float64 {
		return float64(r.passes.empty) / float64(max(len(r.passes.durs), 1))
	}))
	var all []float64
	for _, rs := range reps {
		for _, r := range rs {
			for _, d := range r.passes.durs {
				all = append(all, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	if len(all) > 0 {
		res.set("sched.pass_p50_us", stats.Median(all))
		res.set("sched.pass_p99_us", stats.Percentile(all, 99))
		res.note("sched.pass_p99_us", "%d passes", len(all))
	}
	// The engine times the same call from the inside (Result().DecisionNanos);
	// the two must agree or the decorator is measuring something else.
	res.note("sched.pass_s_total", "engine's own DecisionNanos total %.4f s",
		med(func(r simRep) float64 { return r.enginePassNS / 1e9 }))
}

// passRecorder is the benchmark's sched.Policy decorator: it times and counts
// every scheduling pass from outside the policy. It is installed only on
// traced repetitions.
type passRecorder struct {
	inner  sched.Policy
	tr     *tracer
	parent int64
	rep    int

	durs      []time.Duration
	decisions int
	empty     int
	depthSum  int
}

func (p *passRecorder) Name() string { return p.inner.Name() }

func (p *passRecorder) Schedule(ctx *sched.Context) []sched.Decision {
	start := time.Now()
	ds := p.inner.Schedule(ctx)
	end := time.Now()
	p.tr.add(0, p.parent, p.rep, "sched.pass", start, end, nil)
	p.durs = append(p.durs, end.Sub(start))
	p.decisions += len(ds)
	p.depthSum += len(ctx.Queue)
	if len(ds) == 0 {
		p.empty++
	}
	return ds
}

func (p *passRecorder) total() time.Duration {
	var t time.Duration
	for _, d := range p.durs {
		t += d
	}
	return t
}

// shareConfigurer is the optional interface the engine type-asserts on its
// policy to fill sched.Context.Share. Today's sharing policies overwrite that
// field with their own configuration, so hiding the method changes no digest
// yet; the benchmark checks the forwarding directly so that an engine which
// comes to rely on it is still measured on the simulation it would run.
type shareConfigurer interface {
	ShareConfig() sched.ShareConfig
}

// sharePassRecorder forwards ShareConfig for the sharing policies.
type sharePassRecorder struct{ *passRecorder }

func (p sharePassRecorder) ShareConfig() sched.ShareConfig {
	return p.inner.(shareConfigurer).ShareConfig()
}

// forwardsShareConfig reports whether outer shows the engine the same
// ShareConfig as inner (or inner has none to show).
func forwardsShareConfig(inner, outer sched.Policy) bool {
	want, ok := inner.(shareConfigurer)
	if !ok {
		return true
	}
	got, ok := outer.(shareConfigurer)
	return ok && got.ShareConfig() == want.ShareConfig()
}

// policy returns the decorator as the engine should see it. hide drops the
// ShareConfig forwarding; it exists so a test can show the digest check
// catches exactly that mistake.
func (p *passRecorder) policy(hide bool) sched.Policy {
	if _, ok := p.inner.(shareConfigurer); ok && !hide {
		return sharePassRecorder{p}
	}
	return p
}
