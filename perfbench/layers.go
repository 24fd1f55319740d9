package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/jobspec"
	"picpar/internal/machine"
	"picpar/internal/pic"
)

// tracedRun is a traced run plus what its rank-0 hook read between the
// last warm-up iteration and the last iteration.
type tracedRun struct {
	run
	iters     int
	ms0, ms1  runtime.MemStats
	imbalance float64 // summed over all iterations
}

func newTracedRun(iters int) *tracedRun { return &tracedRun{iters: iters} }

func (t *tracedRun) hook(rec pic.IterationRecord) {
	switch rec.Iter {
	case warmIterations - 1:
		runtime.ReadMemStats(&t.ms0)
	case t.iters - 1:
		runtime.ReadMemStats(&t.ms1)
	}
	t.imbalance += rec.BusyImbalance
}

// strategies are the redistribution layouts policy.Adaptive can choose.
var strategies = []string{"equal-count", "cost-weighted", "eulerian"}

// layerMetrics reports a sim workload's per-layer metrics from its traced
// runs. plain and p1 are the untraced rates of the same runs at the
// workload's P and at P=1.
func layerMetrics(trs []*tracedRun, plain, p1 rate) metrics {
	out := phaseMetrics(trs, "")
	t, model, _ := sumPhases(trs)
	for ph := 0; ph < numPhases; ph++ {
		// Measured busy wall time per modelled second, the initial
		// distribution included on both sides.
		ratio := 0.0
		if model[ph] > 0 {
			ratio = (t.busy[ph] + t.setupBusy[ph]).Seconds() / model[ph]
		}
		out.set("machine.wall_per_sim."+machine.Phase(ph).String(), "ratio", ratio)
	}
	var traced rate
	var build, distribute, redist []float64
	var redistCount, iters, timed int
	var imbalance float64
	var alloc, gcs, pause uint64
	byStrategy := map[string]int{}
	for _, t := range trs {
		traced.add(t.run)
		b, s, _ := t.probe.setup()
		build = append(build, ms(b))
		distribute = append(distribute, ms(s-b))
		redist = append(redist, durationsMS(t.probe.redistSpans)...)
		redistCount += t.res.NumRedistributions
		for k, v := range t.res.RedistByStrategy {
			byStrategy[k] += v
		}
		iters += t.iters
		timed += t.iters - warmIterations
		imbalance += t.imbalance
		alloc += t.ms1.TotalAlloc - t.ms0.TotalAlloc
		gcs += uint64(t.ms1.NumGC - t.ms0.NumGC)
		pause += t.ms1.PauseTotalNs - t.ms0.PauseTotalNs
	}
	out.set("pic.setup.build_ms", "ms", median(build))
	out.set("pic.setup.distribute_ms", "ms", median(distribute))
	out.set("psort.redist_count", "count", float64(redistCount))
	out.set("psort.redist_ms_p50", "ms", median(redist))
	out.set("policy.busy_imbalance_mean", "ratio", imbalance/float64(iters))
	for _, s := range strategies {
		out.set("policy.redist."+s, "count", float64(byStrategy[s]))
	}
	n := float64(timed)
	out.set("runtime.alloc_bytes_per_iter", "B", float64(alloc)/n)
	out.set("runtime.gc_cycles_per_100iter", "count", float64(gcs)*100/n)
	out.set("runtime.gc_pause_ms_per_iter", "ms", float64(pause)/1e6/n)
	out.set("trace.overhead_frac", "ratio", (plain.perSecond()-traced.perSecond())/plain.perSecond())
	out.set("pic.speedup_vs_p1", "ratio", plain.perSecond()/p1.perSecond())
	return out
}

// sumPhases sums the probes' per-phase records and the modelled Stats
// seconds per phase over runs, and counts their iterations.
func sumPhases(trs []*tracedRun) (sum phaseTotals, model [numPhases]float64, iters int) {
	for _, tr := range trs {
		t := tr.probe.totals()
		for ph := 0; ph < numPhases; ph++ {
			sum.busy[ph] += t.busy[ph]
			sum.wait[ph] += t.wait[ph]
			sum.setupBusy[ph] += t.setupBusy[ph]
			sum.msgs[ph] += t.msgs[ph]
			sum.bytes[ph] += t.bytes[ph]
		}
		for _, st := range tr.res.Stats.Ranks {
			for ph := 0; ph < numPhases; ph++ {
				model[ph] += st.Phases[ph].ComputeTime + st.Phases[ph].CommTime
			}
		}
		iters += tr.iters
	}
	return sum, model, iters
}

// phaseMetrics reports the per-phase busy and wait time and traffic per
// iteration, summed over ranks, with prefix before each name.
func phaseMetrics(trs []*tracedRun, prefix string) metrics {
	out := metrics{}
	t, _, iters := sumPhases(trs)
	n := float64(iters)
	for ph := 0; ph < numPhases; ph++ {
		name := machine.Phase(ph).String()
		out.set(prefix+"pic."+name+".busy_ms", "ms", ms(t.busy[ph])/n)
		out.set(prefix+"pic."+name+".wait_ms", "ms", ms(t.wait[ph])/n)
		out.set(prefix+"comm."+name+".msgs", "count", float64(t.msgs[ph])/n)
		out.set(prefix+"comm."+name+".bytes", "B", float64(t.bytes[ph])/n)
	}
	return out
}

// replica runs cfg as the served job's worker world does — one rank per
// endpoint over real loopback TCP, checkpointing into dir with recovery on
// — but inside this process, so the probe sees every rank.
func replica(cfg pic.Config, dir string) (r run) {
	cfg.CheckpointDir, cfg.Recover = dir, true
	pr := newProbe(true)
	r.probe = pr
	pr.install(&cfg, nil)
	params := cfg.Machine
	if params == (machine.Params{}) {
		params = machine.CM5()
	}
	_, errs := comm.LaunchLoopback(comm.NetConfig{Params: params}, cfg.P, pr.wrap, func(t comm.Transport) {
		res, err := pic.RunRank(t, cfg)
		if err != nil {
			panic(err) // LaunchLoopback reports it as this rank's error
		}
		if t.Rank() == 0 {
			r.res = res
		}
	})
	r.wall = pr.now()
	r.err = errors.Join(errs...)
	return r
}

// replicas measures the layers under the daemon — the TCP transport and
// checkpoint epochs — from traced replicas of the job specs.
func (s jobPath) replicas(specs []jobspec.Spec, refs []outcome, led *ledger) (metrics, error) {
	var trs []*tracedRun
	var epochBytes int64
	for i := 0; i < replicaRuns; i++ {
		k := i % len(specs)
		cfg := mustConfig(specs[k])
		dir := filepath.Join(s.work, fmt.Sprintf("replica-%d-%d", os.Getpid(), i))
		tr := newTracedRun(cfg.Iterations)
		tr.run = replica(cfg, dir)
		if tr.err == nil {
			tr.err = check(tr.run, cfg, &refs[k])
		}
		if tr.err == nil {
			epochBytes = latestEpochBytes(dir)
		}
		os.RemoveAll(dir)
		if led.record(fmt.Sprintf("TCP replica %d of job seed %d", i, specs[k].Seed), tr.err) {
			trs = append(trs, tr)
		}
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("every TCP replica failed")
	}
	progress("%d TCP replicas of the job spec", replicaRuns)
	out := phaseMetrics(trs, "tcp.")
	out.set("ckpt.epoch_ms_p50", "ms", epochMS(trs, specs[0].CheckpointEvery))
	out.set("ckpt.epoch_bytes", "B", float64(epochBytes))
	return out, nil
}

// epochMS is the median rank-0 gap from OnIteration to the next scatter on
// checkpoint iterations, less the median gap on the other iterations: the
// wall time one checkpoint epoch adds to an iteration.
func epochMS(trs []*tracedRun, every int) float64 {
	var withEpoch, without []float64
	for _, t := range trs {
		for i, next := range t.probe.nextScatter {
			gap := ms(next - t.probe.iterAt[i])
			if (i+1)%every == 0 {
				withEpoch = append(withEpoch, gap)
			} else {
				without = append(without, gap)
			}
		}
	}
	return median(withEpoch) - median(without)
}

// latestEpochBytes sums the shard files of the newest complete epoch.
func latestEpochBytes(dir string) int64 {
	epochs := ckpt.Epochs(dir)
	if len(epochs) == 0 {
		return 0
	}
	latest := epochs[0]
	for _, e := range epochs {
		latest = max(latest, e)
	}
	var total int64
	ents, _ := os.ReadDir(ckpt.EpochDir(dir, latest))
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
