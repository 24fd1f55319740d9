package main

import (
	"testing"
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
)

// fakeTransport is a scripted endpoint: Recv and Expose advance a fake
// clock by a fixed wait. Methods the probe never calls are left to the nil
// embedded interface.
type fakeTransport struct {
	comm.Transport
	rank  int
	stats machine.Stats
	clock *time.Duration
	wait  time.Duration
}

func (f *fakeTransport) Rank() int                     { return f.rank }
func (f *fakeTransport) Stats() *machine.Stats         { return &f.stats }
func (f *fakeTransport) SetPhase(p machine.Phase)      { f.stats.SetPhase(p) }
func (f *fakeTransport) Send(int, comm.Tag, any, int)  {}
func (f *fakeTransport) Recv(int, comm.Tag) (any, int) { *f.clock += f.wait; return nil, 0 }
func (f *fakeTransport) Expose(v any) []any            { *f.clock += f.wait; return []any{v} }
func (f *fakeTransport) advance(d time.Duration)       { *f.clock += d }

func fakeProbe(traced bool, clock *time.Duration) *probe {
	p := newProbe(traced)
	p.now = func() time.Duration { return *clock }
	return p
}

const msec = time.Millisecond

func TestProbeAttributesBusyAndWait(t *testing.T) {
	var clock time.Duration
	p := fakeProbe(true, &clock)
	f := &fakeTransport{rank: 0, clock: &clock}
	tr := p.wrap(f)

	f.advance(5 * msec) // build: charged to no phase
	f.wait = 2 * msec
	tr.Recv(1, 0) // nor is a wait before the first SetPhase
	tr.SetPhase(machine.PhaseRedistribute)
	f.advance(3 * msec)
	tr.Send(1, 0, nil, 10)
	tr.Recv(1, 0)
	f.advance(1 * msec)
	tr.SetPhase(machine.PhaseScatter) // end of set-up

	f.advance(4 * msec)
	tr.Send(1, 0, nil, 100)
	tr.Send(0, 0, nil, 50) // self-sends are not traffic
	f.wait = 6 * msec
	tr.Recv(1, 0)
	f.advance(1 * msec)
	tr.SetPhase(machine.PhaseGather)
	f.advance(2 * msec)
	f.wait = 3 * msec
	tr.Expose(nil)
	p.markIteration(false, true) // last iteration: timing stops at the next boundary
	f.advance(1 * msec)
	tr.SetPhase(machine.PhaseCommSetup)
	f.advance(10 * msec)
	tr.Recv(1, 0)
	tr.Send(1, 0, nil, 7) // traffic is still counted after timing stops

	build, setup, ok := p.setup()
	if !ok || build != 7*msec || setup != 13*msec {
		t.Fatalf("setup = %v, %v, %v; want 7ms to the first phase, 13ms to the first scatter", build, setup, ok)
	}
	got := p.totals()
	want := map[machine.Phase][2]time.Duration{
		machine.PhaseScatter:      {5 * msec, 6 * msec},
		machine.PhaseGather:       {3 * msec, 3 * msec},
		machine.PhaseRedistribute: {0, 0},
		machine.PhaseCommSetup:    {0, 0},
	}
	for ph, bw := range want {
		if got.busy[ph] != bw[0] || got.wait[ph] != bw[1] {
			t.Errorf("%v: busy %v wait %v, want %v %v", ph, got.busy[ph], got.wait[ph], bw[0], bw[1])
		}
	}
	if got.setupBusy[machine.PhaseRedistribute] != 4*msec {
		t.Errorf("set-up busy in redistribute = %v, want 4ms", got.setupBusy[machine.PhaseRedistribute])
	}
	if got.msgs[machine.PhaseScatter] != 1 || got.bytes[machine.PhaseScatter] != 100 {
		t.Errorf("scatter traffic %d msgs %d bytes, want 1 and 100", got.msgs[machine.PhaseScatter], got.bytes[machine.PhaseScatter])
	}
	if got.msgs[machine.PhaseRedistribute] != 0 {
		t.Errorf("set-up traffic leaked into the per-iteration counts: %d", got.msgs[machine.PhaseRedistribute])
	}
	if got.msgs[machine.PhaseCommSetup] != 1 || got.bytes[machine.PhaseCommSetup] != 7 {
		t.Errorf("commsetup traffic %d msgs %d bytes, want 1 and 7", got.msgs[machine.PhaseCommSetup], got.bytes[machine.PhaseCommSetup])
	}
}

func TestProbeRankZeroTimeline(t *testing.T) {
	var clock time.Duration
	p := fakeProbe(true, &clock)
	f := &fakeTransport{rank: 0, clock: &clock}
	tr := p.wrap(f)
	tr.SetPhase(machine.PhaseScatter)

	// Iteration 0 redistributes: the span runs from the first
	// SetPhase(redistribute) to the iteration mark.
	f.advance(5 * msec)
	tr.SetPhase(machine.PhaseRedistribute)
	f.advance(2 * msec)
	tr.SetPhase(machine.PhaseCommSetup)
	tr.SetPhase(machine.PhaseRedistribute)
	f.advance(3 * msec)
	p.markIteration(true, false)
	f.advance(4 * msec) // e.g. a checkpoint epoch
	tr.SetPhase(machine.PhaseScatter)
	f.advance(6 * msec)
	p.markIteration(false, false)
	f.advance(1 * msec)
	tr.SetPhase(machine.PhaseScatter)
	tr.SetPhase(machine.PhaseScatter) // only the first scatter after a mark counts

	if len(p.redistSpans) != 1 || p.redistSpans[0] != 5*msec {
		t.Errorf("redistribution spans %v, want [5ms]", p.redistSpans)
	}
	if len(p.iterAt) != 2 || p.iterAt[0] != 10*msec || p.iterAt[1] != 20*msec {
		t.Errorf("iteration marks %v, want [10ms 20ms]", p.iterAt)
	}
	if len(p.nextScatter) != 2 || p.nextScatter[0] != 14*msec || p.nextScatter[1] != 21*msec {
		t.Errorf("next-scatter marks %v, want [14ms 21ms]", p.nextScatter)
	}
}

func TestProbeUntracedOnlyNotesSetup(t *testing.T) {
	var clock time.Duration
	p := fakeProbe(false, &clock)
	f := &fakeTransport{rank: 0, clock: &clock, wait: msec}
	tr := p.wrap(f)
	f.advance(2 * msec)
	tr.SetPhase(machine.PhaseRedistribute)
	tr.Send(1, 0, nil, 10)
	tr.Recv(1, 0)
	tr.SetPhase(machine.PhaseScatter)
	if _, setup, ok := p.setup(); !ok || setup != 3*msec {
		t.Fatalf("setup %v %v, want 3ms", setup, ok)
	}
	if got := p.totals(); got != (phaseTotals{}) {
		t.Fatalf("untraced probe recorded %+v", got)
	}
}
