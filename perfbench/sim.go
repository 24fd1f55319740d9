package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"picpar/internal/jobspec"
	"picpar/internal/pic"
)

// Each sim run times a closed loop of fresh short jobs (set-up and job
// latency), then one long run whose iterations after the warm-up give the
// steady-state iteration series.
const (
	simJobs        = 120 // p90 of the job latencies needs ten jobs beyond it
	jobIterations  = 1
	warmIterations = 5 // untimed at the start of every long run and replica
)

// simWorkload is one in-process workload on the goroutine backend.
type simWorkload struct {
	spec           func(seed int64) jobspec.Spec
	itersPerSecond float64 // timed iterations per requested second
	p1Iters        int     // timed iterations of the traced run's P=1 baseline
}

func paperDynamic2D(seed int64) jobspec.Spec {
	return jobspec.Spec{
		Mesh: "256x128", Particles: 131072, Ranks: 8, Distribution: "irregular",
		Thermal: 0.4, Indexing: "hilbert", Policy: "dynamic", Strategy: "equal-count",
		Topology: "full-mesh", Workers: 1, Seed: seed,
	}
}

func spikeAdaptive3D(seed int64) jobspec.Spec {
	return jobspec.Spec{
		Dims: 3, Mesh: "24x24x24", Particles: 32768, Ranks: 8, Distribution: "spike",
		Policy: "adaptive:5", Topology: "neighbor-sparse", Workers: 1, Seed: seed,
	}
}

// run is one pic.Run seen through the probe.
type run struct {
	res   *pic.Result
	err   error
	wall  time.Duration // pic.Run entry → return
	probe *probe
}

// runSim executes cfg once with the probe installed. hook, when non-nil,
// runs on rank 0 after each iteration, before the probe marks it.
func runSim(cfg pic.Config, traced bool, hook func(pic.IterationRecord)) (r run) {
	pr := newProbe(traced)
	r.probe = pr
	pr.install(&cfg, hook)
	cfg.Transport = pr.wrap
	defer func() {
		r.wall = pr.now()
		if e := recover(); e != nil {
			r.err = fmt.Errorf("run panicked: %v", e)
		}
	}()
	r.res, r.err = pic.Run(cfg)
	return r
}

// check is the output check every run passes: no error, every iteration
// completed, every particle conserved, and the same Fingerprint and
// TotalTime as any earlier run of the same configuration (want, when set).
func check(r run, cfg pic.Config, want *outcome) error {
	if r.err != nil {
		return r.err
	}
	res := r.res
	if res.Stopped || res.CompletedIterations != cfg.Iterations {
		return fmt.Errorf("completed %d of %d iterations", res.CompletedIterations, cfg.Iterations)
	}
	if res.FinalParticleCount != cfg.NumParticles {
		return fmt.Errorf("particle count %d, want %d", res.FinalParticleCount, cfg.NumParticles)
	}
	if _, _, ok := r.probe.setup(); !ok {
		return fmt.Errorf("rank 0 never reached the scatter phase")
	}
	got := outcomeOf(res)
	if want != nil && got != *want {
		return fmt.Errorf("got %s, want %s", got, *want)
	}
	return nil
}

// outcome is what the output check compares between runs.
type outcome struct {
	TotalTime   float64
	Fingerprint uint64
}

func outcomeOf(res *pic.Result) outcome {
	return outcome{TotalTime: res.TotalTime, Fingerprint: res.Fingerprint}
}

func (o outcome) String() string {
	return fmt.Sprintf("TotalTime %.17g Fingerprint %016x", o.TotalTime, o.Fingerprint)
}

// ledger counts attempted and failed operations and keeps the reasons.
type ledger struct {
	attempted, failed int
	reasons           []string
}

func (l *ledger) record(what string, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		l.reasons = append(l.reasons, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// checkPins runs the short job of the workload at the committed seed and
// compares it with the pinned outcome, so every run checks the program's
// output against a fixed reference whatever --seed it was given.
func checkPins(name string, w simWorkload, led *ledger) {
	cfg := mustConfig(w.spec(pinSeed))
	cfg.Iterations = jobIterations
	key := pinKey(name, pinSeed, cfg.Iterations)
	want, pinned := pins[key]
	r := runSim(cfg, false, nil)
	err := check(r, cfg, &want)
	if !pinned && r.res != nil {
		err = fmt.Errorf("no pinned outcome for %s (this run: %s)", key, outcomeOf(r.res))
	}
	led.record("pinned job "+key, err)
}

func mustConfig(s jobspec.Spec) pic.Config {
	cfg, err := s.Config()
	if err != nil {
		panic(fmt.Sprintf("workload spec: %v", err)) // the specs are constants of this file
	}
	return cfg
}

// simResult is what one run of a sim workload measured.
type simResult struct {
	setup, latency []float64     // per short job, seconds / ms
	jobsWall       time.Duration // summed over the jobs
	gaps           []float64     // ms, timed iterations of the long run
	stepsPerSec    float64
	simPerIter     float64
}

// timed is the number of timed iterations of the long run.
func (w simWorkload) timed(seconds int) int {
	return int(math.Round(float64(seconds) * w.itersPerSecond))
}

// measureSim runs the job loop and the long run of one sim workload.
func measureSim(name string, w simWorkload, seed int64, seconds int, led *ledger) simResult {
	var out simResult
	cfg := mustConfig(w.spec(seed))
	cfg.Iterations = jobIterations

	var first *outcome
	for j := 0; j < simJobs; j++ {
		// Each job starts on a collected heap, as a fresh picsim process
		// would; otherwise whether a collection lands inside a job splits
		// the latencies in two and p90 sits on the boundary.
		runtime.GC()
		r := runSim(cfg, false, nil)
		if !led.record(fmt.Sprintf("job %d", j), check(r, cfg, first)) {
			continue
		}
		if first == nil {
			o := outcomeOf(r.res)
			first = &o
		}
		_, setup, _ := r.probe.setup()
		out.setup = append(out.setup, setup.Seconds())
		out.latency = append(out.latency, ms(r.wall))
		out.jobsWall += r.wall
	}
	progress("%d jobs of %d iteration(s) in %.2fs", simJobs, jobIterations, out.jobsWall.Seconds())

	long := longRun(name, w, seed, w.timed(seconds), false, nil, led)
	if long.err == nil {
		out.gaps = iterationGaps(long)
		var rt rate
		rt.add(long)
		out.stepsPerSec = rt.perSecond()
		out.simPerIter = long.res.TotalTime / float64(long.res.Config.Iterations)
	}
	return out
}

// longRun runs warm + timed iterations of the workload and checks them
// (against the pinned outcome at the committed seed).
func longRun(name string, w simWorkload, seed int64, timed int, traced bool, hook func(pic.IterationRecord), led *ledger) run {
	cfg := mustConfig(w.spec(seed))
	cfg.Iterations = warmIterations + timed
	var want *outcome
	if o, ok := pins[pinKey(name, seed, cfg.Iterations)]; ok {
		want = &o
	}
	runtime.GC()
	r := runSim(cfg, traced, hook)
	if err := check(r, cfg, want); err != nil {
		r.err = err
	}
	led.record(fmt.Sprintf("long run (%d iterations)", cfg.Iterations), r.err)
	if r.err == nil {
		progress("long run %s (traced %v) in %.2fs: %s", pinKey(name, seed, cfg.Iterations), traced, r.wall.Seconds(), outcomeOf(r.res))
	}
	return r
}

// iterationGaps returns the gaps (ms) between successive rank-0 iteration
// marks after the warm-up.
func iterationGaps(r run) []float64 {
	at := r.probe.iterAt
	var gaps []float64
	for i := warmIterations; i < len(at); i++ {
		gaps = append(gaps, ms(at[i]-at[i-1]))
	}
	return gaps
}

// rate pools particle-steps and the wall time they took over runs.
type rate struct {
	steps float64
	span  time.Duration
}

// add counts the iterations of r after the warm-up.
func (rt *rate) add(r run) {
	at := r.probe.iterAt
	rt.steps += float64(r.res.Config.NumParticles * (len(at) - warmIterations))
	rt.span += at[len(at)-1] - at[warmIterations-1]
}

func (rt rate) perSecond() float64 { return rt.steps / rt.span.Seconds() }

// simEndToEnd turns one run's measurements into the end-to-end metrics.
func simEndToEnd(m simResult) (metrics, error) {
	out := metrics{}
	var err error
	out.setPercentile("iter_ms_p50", "ms", m.gaps, 0.50, &err)
	out.setPercentile("iter_ms_p95", "ms", m.gaps, 0.95, &err)
	out.setPercentile("setup_s", "s", m.setup, 0.50, &err)
	out.setPercentile("job_latency_ms_p50", "ms", m.latency, 0.50, &err)
	out.setPercentile("job_latency_ms_p90", "ms", m.latency, 0.90, &err)
	out.set("particle_steps_per_s", "1/s", m.stepsPerSec)
	out.set("jobs_per_s", "1/s", float64(len(m.latency))/m.jobsWall.Seconds())
	out.set("sim_s_per_iter", "s", m.simPerIter)
	out.set("peak_rss_mb", "MB", selfPeakRSSMB())
	return out, err
}

// tracedSim is the traced run of a sim workload: a P=1 baseline, the long
// run untraced, traced, and untraced again, and the job path.
func tracedSim(name string, w simWorkload, seed int64, seconds int, jp jobPath, led *ledger) (metrics, error) {
	// The traced run makes three long runs, each half as long as the
	// end-to-end run's, so it takes about as long as one end-to-end run.
	timed := w.timed(seconds) / 2
	p1 := mustConfig(w.spec(seed))
	p1.P = 1
	p1.Iterations = warmIterations + w.p1Iters
	runtime.GC()
	base := runSim(p1, false, nil)
	var p1Rate rate
	if led.record("P=1 baseline", check(base, p1, nil)) {
		p1Rate.add(base)
	}

	// Untraced runs on both sides of the traced one, so a drift in the
	// host's speed does not read as tracing overhead.
	var plainRate rate
	untraced := func() {
		if plain := longRun(name, w, seed, timed, false, nil, led); plain.err == nil {
			plainRate.add(plain)
		}
	}
	untraced()
	tr := newTracedRun(warmIterations + timed)
	tr.run = longRun(name, w, seed, timed, true, tr.hook, led)
	if tr.err != nil {
		return nil, tr.err
	}
	untraced()
	out := layerMetrics([]*tracedRun{tr}, plainRate, p1Rate)
	jm, err := jp.measure(led)
	if err != nil {
		return nil, err
	}
	for k, v := range jm {
		out[k] = v
	}
	return out, nil
}
