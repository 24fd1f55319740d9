package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"picpar/internal/jobspec"
	"picpar/internal/serve"
)

// jobPath measures the production job path, from a traced run: the
// picserve binary with its default process runner and one running job at a
// time, driven by two closed-loop clients that each submit a job, follow
// its event stream to a terminal state, then submit the next; and, for the
// layers under the daemon, in-process replicas of the job over real
// loopback TCP with checkpoints on.
type jobPath struct {
	bin, work string
	seed      int64
}

const (
	serveClients = 2
	serveSpecs   = 4  // distinct job seeds, cycled over the jobs
	serveJobs    = 60 // timed jobs of the client session
	replicaRuns  = 8  // traced TCP replicas of the job spec
)

// jobSpec is the served job: small enough that set-up, the TCP transport
// and checkpoint epochs are a large share of it.
func jobSpec(seed int64) jobspec.Spec {
	return jobspec.Spec{
		Mesh: "64x32", Particles: 4096, Ranks: 2, Iterations: 50,
		Distribution: "irregular", Policy: "dynamic", CheckpointEvery: 10, Seed: seed,
	}
}

// specs derives the job specs from the workload seed.
func (s jobPath) specs() []jobspec.Spec {
	out := make([]jobspec.Spec, serveSpecs)
	for k := range out {
		out[k] = jobSpec(s.seed*serveSpecs + int64(k))
	}
	return out
}

// references runs every job spec in-process before timing starts; a served
// job must reproduce its reference's Fingerprint.
func references(specs []jobspec.Spec, led *ledger) ([]outcome, error) {
	refs := make([]outcome, len(specs))
	for k, spec := range specs {
		cfg := mustConfig(spec)
		r := runSim(cfg, false, nil)
		if !led.record(fmt.Sprintf("reference run of job seed %d", spec.Seed), check(r, cfg, nil)) {
			return nil, fmt.Errorf("reference run of job seed %d failed", spec.Seed)
		}
		refs[k] = outcomeOf(r.res)
	}
	return refs, nil
}

// session starts a daemon, runs one warm-up job per client and then n
// timed jobs through the closed loop, and stops the daemon. It returns the
// timed jobs and the wall time from the first timed submission to the last
// terminal state.
func (s jobPath) session(ctx context.Context, specs []jobspec.Spec, refs []outcome, n int, led *ledger) ([]jobTrace, time.Duration, error) {
	dir := filepath.Join(s.work, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(filepath.Join(dir, "data")) // the daemon log stays for inspection
	d, err := startDaemon(ctx, s.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newServeClient(d.base)

	loop := func(perClient int, first int) []jobTrace {
		out := make([]jobTrace, serveClients*perClient)
		var wg sync.WaitGroup
		for cl := 0; cl < serveClients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for j := 0; j < perClient; j++ {
					k := (first + cl + serveClients*j) % len(specs)
					i := cl*perClient + j
					if ctx.Err() != nil {
						out[i] = jobTrace{spec: k, err: ctx.Err()}
						continue
					}
					out[i] = c.runJob(ctx, specs[k], fmt.Sprintf("%016x", refs[k].Fingerprint))
					out[i].spec = k
				}
			}(cl)
		}
		wg.Wait()
		return out
	}
	warm := loop(1, 0)
	t0 := c.now()
	jobs := loop((n+serveClients-1)/serveClients, serveClients)
	var end time.Duration
	for _, j := range append(warm, jobs...) {
		led.record(fmt.Sprintf("job %s (seed %d)", j.id, specs[j.spec].Seed), j.err)
		end = max(end, j.end)
	}
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	progress("%d timed jobs through picserve in %.2fs", len(jobs), (end - t0).Seconds())
	return jobs, end - t0, ctx.Err()
}

// ── daemon ──────────────────────────────────────────────────────────────

type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// startDaemon launches picserve on a kernel-chosen loopback port with its
// data under dir and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "picserve.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-dir", filepath.Join(dir, "data"), "-addr", "127.0.0.1:0",
		"-addr-file", addrFile, "-max-active", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die first, the daemon gets its drain signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start picserve: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("picserve exited during start-up: %v (log %s)", cmd.ProcessState, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("picserve did not come up within 20s (log %s)", logf.Name())
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("picserve did not drain within 30s")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("picserve exited with %v (log %s)", d.cmd.ProcessState, d.log.Name())
	}
	return nil
}

// ── client ──────────────────────────────────────────────────────────────

// serveClient submits jobs and follows their event streams. Times are
// durations since the client was made.
type serveClient struct {
	base  string
	hc    *http.Client
	epoch time.Time
}

func newServeClient(base string) *serveClient {
	return &serveClient{base: base, hc: &http.Client{Timeout: 60 * time.Second}, epoch: time.Now()}
}

func (c *serveClient) now() time.Duration { return time.Since(c.epoch) }

// jobTrace is what a client saw of one job.
type jobTrace struct {
	id               string
	spec             int
	submit, admitted time.Duration // POST sent, POST answered
	status           int           // of the POST; 0 when it got no answer
	state            map[serve.State]time.Duration
	iters            []time.Duration // each iter event
	dropped          int             // frames the stream reported lost
	terminal         serve.State
	end              time.Duration // terminal state seen (or failure)
	manifest         *serve.Manifest
	err              error // refused, not done, or wrong output
}

// runJob submits spec, follows its stream to a terminal state, and checks
// the finished job against the reference fingerprint. A refusal, a job
// that does not end done, and a wrong output all come back as err.
func (c *serveClient) runJob(ctx context.Context, spec jobspec.Spec, want string) (jt jobTrace) {
	defer func() {
		if jt.err != nil && jt.end == 0 {
			jt.end = c.now()
		}
	}()
	body, err := json.Marshal(spec)
	if err != nil {
		jt.err = err
		return jt
	}
	jt.submit = c.now()
	var m serve.Manifest
	jt.status, err = c.do(ctx, http.MethodPost, "/jobs", body, &m)
	jt.admitted = c.now()
	if err != nil {
		jt.err = fmt.Errorf("submit: %w", err)
		return jt
	}
	if jt.status != http.StatusAccepted {
		jt.err = fmt.Errorf("submit refused with status %d", jt.status)
		return jt
	}
	jt.id = m.ID

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+m.ID+"/events", nil)
	if err != nil {
		jt.err = err
		return jt
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		jt.err = fmt.Errorf("events: %w", err)
		return jt
	}
	jt.state = make(map[serve.State]time.Duration)
	err = readEvents(resp.Body, func(event, data string) bool {
		at := c.now()
		switch event {
		case "state":
			var s struct {
				State serve.State `json:"state"`
			}
			if json.Unmarshal([]byte(data), &s) != nil {
				return true
			}
			if _, seen := jt.state[s.State]; !seen {
				jt.state[s.State] = at
			}
			if s.State.Terminal() {
				jt.terminal, jt.end = s.State, at
				return false
			}
		case "iter":
			jt.iters = append(jt.iters, at)
		case "gap":
			var g struct {
				Dropped int `json:"dropped"`
			}
			if json.Unmarshal([]byte(data), &g) == nil {
				jt.dropped += g.Dropped
			}
		}
		return true
	})
	resp.Body.Close()
	if err != nil {
		jt.err = fmt.Errorf("events: %w", err)
		return jt
	}
	if jt.terminal == "" {
		jt.err = fmt.Errorf("event stream of %s ended without a terminal state", m.ID)
		return jt
	}

	var fin serve.Manifest
	if status, err := c.do(ctx, http.MethodGet, "/jobs/"+m.ID, nil, &fin); err != nil || status != http.StatusOK {
		jt.err = fmt.Errorf("manifest of %s: status %d, %v", m.ID, status, err)
		return jt
	}
	jt.manifest = &fin
	switch {
	case fin.State != serve.StateDone:
		jt.err = fmt.Errorf("job %s ended %s (%s): %s", m.ID, fin.State, fin.Reason, fin.Detail)
	case fin.Result == nil:
		jt.err = fmt.Errorf("job %s is done without a result", m.ID)
	case fin.Result.Fingerprint != want:
		jt.err = fmt.Errorf("job %s Fingerprint %s, in-process reference %s", m.ID, fin.Result.Fingerprint, want)
	case fin.Result.FinalParticleCount != spec.Particles:
		jt.err = fmt.Errorf("job %s ended with %d particles, want %d", m.ID, fin.Result.FinalParticleCount, spec.Particles)
	case fin.Result.CompletedIterations != spec.Iterations:
		jt.err = fmt.Errorf("job %s completed %d of %d iterations", m.ID, fin.Result.CompletedIterations, spec.Iterations)
	}
	return jt
}

// do sends one request and decodes a 2xx JSON answer into out.
func (c *serveClient) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// readEvents parses a server-sent event stream, calling fn per event until
// fn returns false or the stream ends.
func readEvents(r io.Reader, fn func(event, data string) bool) error {
	sc := bufio.NewScanner(r)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" && !fn(event, data) {
				return nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return sc.Err()
}

// ── measurement ─────────────────────────────────────────────────────────

// measure reports the service layer's metrics from a client session, and
// the checkpoint and TCP layers' from replicas of the job.
func (s jobPath) measure(led *ledger) (metrics, error) {
	ctx, stop := signalContext()
	defer stop()
	specs := s.specs()
	refs, err := references(specs, led)
	if err != nil {
		return nil, err
	}
	jobs, wall, err := s.session(ctx, specs, refs, serveJobs, led)
	if err != nil {
		return nil, err
	}
	var admit, queue, assemble, setup, gaps, finish, latency []float64
	dropped, rejects, done := 0, 0, 0
	for _, j := range jobs {
		if j.status != http.StatusAccepted {
			if j.status != 0 {
				rejects++
			}
			continue
		}
		admit = append(admit, ms(j.admitted-j.submit))
		if m := j.manifest; m != nil && !m.Started.IsZero() {
			queue = append(queue, ms(m.Started.Sub(m.Submitted)))
		}
		run, running := j.state[serve.StateRunning]
		if a, ok := j.state[serve.StateAssembling]; ok && running {
			assemble = append(assemble, ms(run-a))
		}
		if running && len(j.iters) > 0 {
			setup = append(setup, ms(j.iters[0]-run))
		}
		for i := 1; i < len(j.iters); i++ {
			gaps = append(gaps, ms(j.iters[i]-j.iters[i-1]))
		}
		if len(j.iters) > 0 && j.terminal != "" {
			finish = append(finish, ms(j.end-j.iters[len(j.iters)-1]))
		}
		if j.err == nil {
			done++
			latency = append(latency, ms(j.end-j.submit))
		}
		dropped += j.dropped
	}
	out := metrics{}
	out.set("serve.admit_ms_p50", "ms", median(admit))
	out.set("serve.queue_ms_p50", "ms", median(queue))
	out.set("serve.assemble_ms_p50", "ms", median(assemble))
	out.set("serve.setup_ms_p50", "ms", median(setup))
	out.set("serve.iter_ms_p50", "ms", median(gaps))
	out.set("serve.finish_ms_p50", "ms", median(finish))
	out.set("serve.job_latency_ms_p50", "ms", median(latency))
	out.set("serve.jobs_per_s", "1/s", float64(done)/wall.Seconds())
	out.set("serve.sse_gap_frames", "count", float64(dropped))
	out.set("serve.rejects", "count", float64(rejects))

	rm, err := s.replicas(specs, refs, led)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		out[k] = v
	}
	return out, nil
}
