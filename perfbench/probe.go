package main

import (
	"sync"
	"sync/atomic"
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
	"picpar/internal/pic"
)

const numPhases = machine.NumPhases

// probe is the benchmark's comm.Transport decorator. Installed as a run's
// Config.Transport (or as the wrap of comm.LaunchLoopback) it sees every
// rank's SetPhase boundaries and Send/Recv/Expose calls, so it measures the
// simulation's layers from outside the program.
//
// Untraced, it only notes when each rank first enters each phase, which is
// what setup_s needs. Traced, it also splits each rank's wall time between
// SetPhase boundaries into busy and wait (time blocked in Recv or in the
// out-of-band Expose barrier), counts sent messages and modelled bytes per
// phase, and keeps rank 0's per-iteration timeline. Everything stays in
// memory until the run returns.
type probe struct {
	traced bool
	// now is the probe's clock: time since the run's entry (a test fake
	// may replace it).
	now func() time.Duration
	// done is set by the rank-0 iteration hook after the last iteration:
	// ranks stop timing at their next boundary, so the run's epilogue
	// (fingerprint hashing) is not charged to a phase. Traffic is still
	// counted, which keeps the counts exact.
	done atomic.Bool

	mu    sync.Mutex
	ranks map[int]*rankProbe

	// Rank 0's timeline, written on rank 0's goroutine only (the pic
	// OnIteration hook runs there too).
	iterAt      []time.Duration // each OnIteration call
	nextScatter []time.Duration // first SetPhase(scatter) after each call
	redistSpans []time.Duration // first SetPhase(redistribute) → OnIteration, redistributing iterations
}

func newProbe(traced bool) *probe {
	entry := time.Now()
	return &probe{
		traced: traced,
		now:    func() time.Duration { return time.Since(entry) },
		ranks:  make(map[int]*rankProbe),
	}
}

// wrap decorates one rank's endpoint.
func (p *probe) wrap(t comm.Transport) comm.Transport {
	rp := &rankProbe{
		Transport:    t,
		p:            p,
		phase:        t.Stats().CurrentPhase(),
		firstPhase:   -1,
		firstScatter: -1,
		redistAt:     -1,
	}
	p.mu.Lock()
	p.ranks[t.Rank()] = rp
	p.mu.Unlock()
	return rp
}

func (p *probe) rank(id int) *rankProbe {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ranks[id]
}

// setup returns rank 0's time from entry to its first SetPhase and to its
// first SetPhase(scatter); ok is false when the run never got that far.
func (p *probe) setup() (build, total time.Duration, ok bool) {
	r0 := p.rank(0)
	if r0 == nil || r0.firstScatter < 0 {
		return 0, 0, false
	}
	return r0.firstPhase, r0.firstScatter, true
}

// install sets cfg's OnIteration hook: hook (when non-nil) and then
// markIteration run on rank 0 after each iteration.
func (p *probe) install(cfg *pic.Config, hook func(pic.IterationRecord)) {
	last := cfg.Iterations - 1
	cfg.OnIteration = func(rec pic.IterationRecord) {
		if hook != nil {
			hook(rec)
		}
		p.markIteration(rec.Redistributed, rec.Iter == last)
	}
}

// markIteration is called from the rank-0 OnIteration hook. It closes the
// redistribution span of a redistributing iteration and arms the
// next-scatter mark the checkpoint-epoch measurement reads. last stops
// the timing on every rank.
func (p *probe) markIteration(redistributed, last bool) {
	r0 := p.rank(0)
	now := p.now()
	if p.traced && r0 != nil {
		if redistributed && r0.redistAt >= 0 {
			p.redistSpans = append(p.redistSpans, now-r0.redistAt)
		}
		r0.redistAt = -1
		r0.armed = true
	}
	p.iterAt = append(p.iterAt, now)
	if last {
		p.done.Store(true)
	}
}

// phaseTotals is the traced per-phase record of one run, summed over ranks.
type phaseTotals struct {
	busy, wait  [numPhases]time.Duration // after each rank's first scatter
	setupBusy   [numPhases]time.Duration // before it (initial distribution)
	msgs, bytes [numPhases]int64         // after each rank's first scatter
}

// totals sums the ranks' records. Call it after the run has returned.
func (p *probe) totals() phaseTotals {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t phaseTotals
	for _, r := range p.ranks {
		for ph := 0; ph < numPhases; ph++ {
			t.busy[ph] += (r.wall[ph] - r.setupWall[ph]) - (r.wait[ph] - r.setupWait[ph])
			t.wait[ph] += r.wait[ph] - r.setupWait[ph]
			t.setupBusy[ph] += r.setupWall[ph] - r.setupWait[ph]
			t.msgs[ph] += r.msgs[ph] - r.setupMsgs[ph]
			t.bytes[ph] += r.bytes[ph] - r.setupBytes[ph]
		}
	}
	return t
}

// rankProbe is one rank's decorated endpoint. Its fields are touched only
// by that rank's goroutine until the run returns.
type rankProbe struct {
	comm.Transport
	p *probe

	phase   machine.Phase
	mark    time.Duration // start of the current phase span
	stopped bool

	firstPhase, firstScatter time.Duration

	wall, wait            [numPhases]time.Duration
	msgs, bytes           [numPhases]int64
	setupWall, setupWait  [numPhases]time.Duration
	setupMsgs, setupBytes [numPhases]int64
	redistAt              time.Duration // rank 0: first SetPhase(redistribute) since the last iteration
	armed                 bool          // rank 0: next SetPhase(scatter) closes a post-iteration gap
}

// Unwrap keeps capabilities of the layers below reachable (comm.Wrapper).
func (r *rankProbe) Unwrap() comm.Transport { return r.Transport }

// closeSpan charges the wall time since the last boundary to the current
// phase, and stops timing once the run is done.
func (r *rankProbe) closeSpan(now time.Duration) {
	if r.stopped {
		return
	}
	r.wall[r.phase] += now - r.mark
	r.mark = now
	if r.p.done.Load() {
		r.stopped = true
	}
}

func (r *rankProbe) SetPhase(ph machine.Phase) {
	now := r.p.now()
	if r.firstPhase < 0 {
		// Nothing before a rank's first SetPhase is charged to a phase:
		// that is the run's build time, reported on its own.
		r.firstPhase, r.mark = now, now
	}
	if r.p.traced {
		r.closeSpan(now)
	}
	if ph == machine.PhaseScatter && r.firstScatter < 0 {
		r.firstScatter = now
		r.setupWall, r.setupWait = r.wall, r.wait
		r.setupMsgs, r.setupBytes = r.msgs, r.bytes
	}
	if r.p.traced && r.Rank() == 0 {
		switch {
		case ph == machine.PhaseRedistribute && r.redistAt < 0:
			r.redistAt = now
		case ph == machine.PhaseScatter && r.armed:
			r.p.nextScatter = append(r.p.nextScatter, now)
			r.armed = false
		}
	}
	r.phase = ph
	r.Transport.SetPhase(ph)
}

func (r *rankProbe) Send(dst int, tag comm.Tag, body any, nbytes int) {
	if r.p.traced && dst != r.Rank() {
		r.msgs[r.phase]++
		r.bytes[r.phase] += int64(nbytes)
	}
	r.Transport.Send(dst, tag, body, nbytes)
}

func (r *rankProbe) Recv(src int, tag comm.Tag) (any, int) {
	if !r.p.traced {
		return r.Transport.Recv(src, tag)
	}
	t0 := r.p.now()
	body, n := r.Transport.Recv(src, tag)
	r.addWait(t0, r.p.now())
	return body, n
}

func (r *rankProbe) Expose(v any) []any {
	if !r.p.traced {
		return r.Transport.Expose(v)
	}
	t0 := r.p.now()
	out := r.Transport.Expose(v)
	r.addWait(t0, r.p.now())
	return out
}

// addWait charges a blocked interval to the current phase. The end of a
// wait is also a span boundary, so a rank that blocks in the epilogue's
// barrier closes its last span there.
func (r *rankProbe) addWait(t0, t1 time.Duration) {
	if r.stopped || r.firstPhase < 0 {
		return
	}
	r.wait[r.phase] += t1 - t0
	r.closeSpan(t1)
}
