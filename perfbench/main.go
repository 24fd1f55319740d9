// Command perfbench is picpar's benchmark. It runs one workload, checks
// the program's outputs, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones measured by a traced run. Build and run it from the root
// of a picpar checkout with
//
//	bash perfbench/run.sh --workload paper-dynamic-2d --seed 1 --seconds 20 --trace 0
//
// The workloads, their metrics and the noise each avoids are described in
// BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var simWorkloads = map[string]simWorkload{
	"paper-dynamic-2d":  {spec: paperDynamic2D, itersPerSecond: 25, p1Iters: 60},
	"spike-adaptive-3d": {spec: spikeAdaptive3D, itersPerSecond: 35, p1Iters: 150},
}

func main() {
	workload := flag.String("workload", "", "paper-dynamic-2d | spike-adaptive-3d")
	seed := flag.Int64("seed", pinSeed, "workload seed; the program only sees the specs generated from it")
	seconds := flag.Int("seconds", 30, "how long the timed part of the run should take on the reference host")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	picserve := flag.String("picserve", "", "picserve binary, for the traced run's job path")
	work := flag.String("work", "", "scratch directory for daemon data and checkpoints, for the traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}

	meta := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	led := &ledger{}
	var out metrics
	var err error
	w, ok := simWorkloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	checkPins(*workload, w, led)
	if *trace == 1 {
		if *picserve == "" || *work == "" {
			fatalf("the traced run needs -picserve and -work")
		}
		meta["timed_iterations"] = w.timed(*seconds) / 2
		meta["jobs"] = serveJobs
		jp := jobPath{bin: *picserve, work: *work, seed: *seed}
		out, err = tracedSim(*workload, w, *seed, *seconds, jp, led)
	} else {
		m := measureSim(*workload, w, *seed, *seconds, led)
		meta["timed_iterations"] = len(m.gaps)
		meta["jobs"] = len(m.latency)
		out, err = simEndToEnd(m)
	}
	for _, r := range led.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", r)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	meta["attempted"], meta["failed"] = led.attempted, led.failed
	mj, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mj)
	names := make([]string, 0, len(out))
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("metric %s is %v", name, m.Value)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %16.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	fmt.Printf("%-36s %16.6g %s\n", "failed_frac", float64(led.failed)/float64(max(led.attempted, 1)), "ratio")
	rep := report{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: out}
	rj, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(rj))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// signalContext is cancelled by SIGINT or SIGTERM, so a stopped benchmark
// still stops the daemon it started.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// progress reports a finished stage on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
