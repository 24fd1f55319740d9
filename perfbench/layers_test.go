package main

import (
	"strings"
	"testing"

	"picpar/internal/jobspec"
)

func tinySpec(seed int64) jobspec.Spec {
	return jobspec.Spec{
		Mesh: "32x16", Particles: 2048, Ranks: 4, Iterations: 20,
		Distribution: "irregular", Policy: "periodic:5", Seed: seed,
	}
}

// The traced traffic counts and the redistribution count are exact: two
// traced runs of one spec report the same values.
func TestTracedCountsRepeat(t *testing.T) {
	var got []metrics
	for i := 0; i < 2; i++ {
		cfg := mustConfig(tinySpec(7))
		tr := newTracedRun(cfg.Iterations)
		tr.run = runSim(cfg, true, tr.hook)
		if err := check(tr.run, cfg, nil); err != nil {
			t.Fatal(err)
		}
		m := phaseMetrics([]*tracedRun{tr}, "")
		m.set("redist", "count", float64(tr.res.NumRedistributions))
		got = append(got, m)
	}
	for name, v := range got[0] {
		if name == "redist" || strings.HasSuffix(name, ".msgs") || strings.HasSuffix(name, ".bytes") {
			if got[1][name] != v {
				t.Errorf("%s: %v then %v", name, v, got[1][name])
			}
		}
	}
	if got[0]["comm.scatter.msgs"].Value == 0 || got[0]["redist"].Value == 0 {
		t.Errorf("no scatter traffic or no redistribution traced: %v", got[0])
	}
}

// A replica over loopback TCP with checkpoints reproduces the in-process
// run of the same spec, and leaves a complete epoch behind.
func TestReplicaMatchesInProcessRun(t *testing.T) {
	spec := tinySpec(3)
	spec.Ranks, spec.CheckpointEvery = 2, 10
	cfg := mustConfig(spec)
	ref := runSim(cfg, false, nil)
	if err := check(ref, cfg, nil); err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(ref.res)
	dir := t.TempDir()
	r := replica(cfg, dir)
	if err := check(r, cfg, &want); err != nil {
		t.Fatal(err)
	}
	if latestEpochBytes(dir) == 0 {
		t.Error("no checkpoint epoch written")
	}
	if len(r.probe.nextScatter) != cfg.Iterations-1 {
		t.Errorf("%d next-scatter marks for %d iterations", len(r.probe.nextScatter), cfg.Iterations)
	}
}
