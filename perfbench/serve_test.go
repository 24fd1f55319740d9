package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"picpar/internal/jobspec"
	"picpar/internal/serve"
)

const wantFingerprint = "00000000000000aa"

// fakeDaemon answers the picserve API for four scripted jobs, keyed by the
// submitted seed: 1 is refused with 429, 2 ends failed, 3 finishes with a
// wrong fingerprint, 4 finishes correctly.
func fakeDaemon(t *testing.T) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec jobspec.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("bad submission: %v", err)
		}
		if spec.Seed == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"reason":"queue-full","error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.Manifest{ID: fmt.Sprintf("j-%d", spec.Seed), Spec: spec, State: serve.StateQueued})
	})
	final := func(id string) (serve.State, string) {
		switch id {
		case "j-2":
			return serve.StateFailed, ""
		case "j-3":
			return serve.StateDone, "00000000000000bb"
		}
		return serve.StateDone, wantFingerprint
	}
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		state, _ := final(r.PathValue("id"))
		frames := []string{
			`event: state` + "\n" + `data: {"state":"queued"}`,
			`event: state` + "\n" + `data: {"state":"assembling"}`,
			`event: state` + "\n" + `data: {"state":"running"}`,
			`event: iter` + "\n" + `data: {"iter":0}`,
			`event: gap` + "\n" + `data: {"dropped":3}`,
			`event: iter` + "\n" + `data: {"iter":4}`,
			fmt.Sprintf("event: state\ndata: {\"state\":%q}", state),
		}
		fmt.Fprint(w, strings.Join(frames, "\n\n")+"\n\n")
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		state, fp := final(r.PathValue("id"))
		m := serve.Manifest{ID: r.PathValue("id"), State: state}
		if state == serve.StateDone {
			m.Result = &serve.JobResult{Fingerprint: fp, FinalParticleCount: 4096, CompletedIterations: 50}
		}
		json.NewEncoder(w).Encode(m)
	})
	return httptest.NewServer(mux)
}

func TestServeClientCountsFailures(t *testing.T) {
	srv := fakeDaemon(t)
	defer srv.Close()
	c := newServeClient(srv.URL)
	led := &ledger{}
	var ok jobTrace
	for seed := int64(1); seed <= 4; seed++ {
		jt := c.runJob(context.Background(), jobSpec(seed), wantFingerprint)
		led.record(fmt.Sprintf("seed %d", seed), jt.err)
		if seed == 4 {
			ok = jt
		}
	}
	if led.attempted != 4 || led.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3: %v", led.attempted, led.failed, led.reasons)
	}
	for i, want := range []string{"429", "failed", "Fingerprint 00000000000000bb"} {
		if !strings.Contains(led.reasons[i], want) {
			t.Errorf("failure %d is %q, want it to name %q", i, led.reasons[i], want)
		}
	}
	if ok.err != nil || len(ok.iters) != 2 || ok.dropped != 3 || ok.terminal != serve.StateDone {
		t.Fatalf("good job: err %v, %d iter events, %d dropped, terminal %q", ok.err, len(ok.iters), ok.dropped, ok.terminal)
	}
	for _, st := range []serve.State{serve.StateQueued, serve.StateAssembling, serve.StateRunning, serve.StateDone} {
		if _, seen := ok.state[st]; !seen {
			t.Errorf("state %s not recorded", st)
		}
	}
}
