package hostif

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestObservePhaseOutOfOrderCompletions: completions may cross phase
// boundaries in either direction (a write parked in a partial program batch
// outlives the next phase's reads). The ring must keep one sorted window
// per phase — no duplicates, no dropped phases — even when a phase's FIRST
// completion arrives after a later phase opened its window.
func TestObservePhaseOutOfOrderCompletions(t *testing.T) {
	done := func(phase int) *Command {
		return &Command{Phase: int32(phase), Req: trace.Request{Op: trace.OpWrite, Bytes: 4096}}
	}
	var wins []phaseWindow
	// Arrival order: 0, 2, 1 (phase 1's first completion is late), 2, 1, 0.
	for _, ph := range []int{0, 2, 1, 2, 1, 0} {
		wins = observePhase(wins, done(ph), sim.Time(100)*sim.Microsecond)
	}
	if len(wins) != 3 {
		t.Fatalf("ring holds %d windows, want 3: %+v", len(wins), wins)
	}
	for i, want := range []uint64{2, 2, 2} {
		if wins[i].idx != i || wins[i].lat.All().Ops != want {
			t.Errorf("window %d = phase %d with %d ops, want phase %d with %d",
				i, wins[i].idx, wins[i].lat.All().Ops, i, want)
		}
	}
	// A full ring drops only completions older than everything it retains.
	wins = nil
	for ph := 0; ph < phaseRingSize; ph++ {
		wins = observePhase(wins, done(ph+10), 0)
	}
	wins = observePhase(wins, done(5), 0) // ancient straggler: dropped
	if len(wins) != phaseRingSize || wins[0].idx != 10 {
		t.Fatalf("ancient straggler mutated the ring: len=%d head=%d", len(wins), wins[0].idx)
	}
	wins = observePhase(wins, done(10+phaseRingSize), 0) // new phase: evicts oldest
	if wins[0].idx != 11 || wins[len(wins)-1].idx != 10+phaseRingSize {
		t.Fatalf("eviction kept %d..%d", wins[0].idx, wins[len(wins)-1].idx)
	}
	// Late insert into the middle of a full ring evicts the oldest, keeps order.
	wins = observePhase(wins, done(11), 0) // still present: folds in
	if wins[0].idx != 11 || wins[0].lat.All().Ops != 2 {
		t.Fatalf("existing window not folded: %+v", wins[0])
	}
	// Gapped full ring: a late middle phase's first completion evicts the
	// oldest window and inserts in sorted position.
	wins = nil
	for ph := 0; ph < phaseRingSize; ph++ {
		wins = observePhase(wins, done(2*ph), 0)
	}
	wins = observePhase(wins, done(15), 0)
	if len(wins) != phaseRingSize {
		t.Fatalf("gapped insert: ring holds %d", len(wins))
	}
	for i := 1; i < len(wins); i++ {
		if wins[i-1].idx >= wins[i].idx {
			t.Fatalf("ring unsorted after mid insert: %d >= %d", wins[i-1].idx, wins[i].idx)
		}
	}
	found := false
	for _, w := range wins {
		found = found || w.idx == 15
	}
	if !found || wins[0].idx != 2 {
		t.Fatalf("mid insert wrong: head=%d found15=%v", wins[0].idx, found)
	}
}

// TestMultiQueuePhaseProfiles: each queue keeps its own per-phase profile
// ring, covering unrecorded phases and surviving the per-queue window reset.
func TestMultiQueuePhaseProfiles(t *testing.T) {
	// Queue 0: 6 requests in an unrecorded phase 0 then 4 in a recorded
	// phase 1 (a precondition -> measure tenant). Queue 1: flat.
	src := stubOf(
		chain(t, []bool{false, true}, seqReqs(0, 6, trace.OpWrite, 0), seqReqs(6, 4, trace.OpWrite, 0)),
		chain(t, nil, reqs(trace.OpRead, 5)),
	)
	i, _ := runMulti(t, SATA2(), src)

	p0 := i.QueuePhaseProfiles(0)
	if len(p0) != 2 {
		t.Fatalf("queue 0 phase profiles = %d, want 2", len(p0))
	}
	if p0[0].Ops != 6 || p0[1].Ops != 4 {
		t.Errorf("queue 0 phase ops = %d/%d, want 6/4", p0[0].Ops, p0[1].Ops)
	}
	if p0[0].Recorded || !p0[1].Recorded {
		t.Errorf("queue 0 record flags = %v/%v, want false/true", p0[0].Recorded, p0[1].Recorded)
	}
	if p0[0].All.MeanUS <= 0 || p0[1].Stages.Wire.MeanUS <= 0 {
		t.Errorf("queue 0 profiles missing measurements: %+v", p0)
	}
	// The measured window itself covers only the recorded phase.
	if got := i.QueueLatency(0).All().Ops; got != 4 {
		t.Errorf("queue 0 window ops = %d, want 4 (reset at the record boundary)", got)
	}
	p1 := i.QueuePhaseProfiles(1)
	if len(p1) != 1 || p1[0].Ops != 5 {
		t.Fatalf("queue 1 phase profiles = %+v, want one 5-op phase", p1)
	}
}

// TestPhaseRingEviction: more phases than the ring holds drops the oldest.
func TestPhaseRingEviction(t *testing.T) {
	const perPhase = 2
	n := phaseRingSize + 4
	phases := make([][]trace.Request, n)
	for p := range phases {
		phases[p] = seqReqs(p*perPhase, perPhase, trace.OpWrite, 0)
	}
	i, _ := runMulti(t, SATA2(), stubOf(chain(t, nil, phases...)))
	wins := i.QueuePhaseProfiles(0)
	if len(wins) != phaseRingSize {
		t.Fatalf("ring holds %d phases, want %d", len(wins), phaseRingSize)
	}
	if wins[0].Index != n-phaseRingSize || wins[len(wins)-1].Index != n-1 {
		t.Errorf("ring kept phases %d..%d, want the %d most recent",
			wins[0].Index, wins[len(wins)-1].Index, phaseRingSize)
	}
	for _, w := range wins {
		if w.Ops != perPhase {
			t.Errorf("phase %d ops = %d, want %d", w.Index, w.Ops, perPhase)
		}
	}
}
