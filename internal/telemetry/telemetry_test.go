package telemetry

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestStageNames(t *testing.T) {
	want := []string{"queued", "wire", "cpu", "dram", "chan", "bus", "nand", "ecc"}
	for i, st := range Stages() {
		if st.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.String(), want[i])
		}
	}
	if Stage(250).String() != "?" {
		t.Errorf("out-of-range stage name = %q", Stage(250).String())
	}
}

// TestSpanWatermarkSumsToEndToEnd is the core invariant: however the
// instrumentation points interleave, the stage durations always sum to
// watermark-minus-start.
func TestSpanWatermarkSumsToEndToEnd(t *testing.T) {
	var sp Span
	sp.Start(100 * sim.Microsecond)
	sp.Advance(StageQueued, 150*sim.Microsecond)
	sp.Advance(StageWire, 160*sim.Microsecond)
	sp.Advance(StageCPU, 162*sim.Microsecond)
	// Out-of-order / duplicate events from overlapping pages: no-ops.
	sp.Advance(StageNAND, 140*sim.Microsecond)
	sp.Advance(StageCPU, 162*sim.Microsecond)
	sp.Advance(StageNAND, 262*sim.Microsecond)
	sp.Advance(StageECC, 270*sim.Microsecond)
	sp.Advance(StageWire, 280*sim.Microsecond)

	if got := sp.Stage(StageQueued); got != 50*sim.Microsecond {
		t.Errorf("queued = %v, want 50us", got)
	}
	if got := sp.Stage(StageNAND); got != 100*sim.Microsecond {
		t.Errorf("nand = %v, want 100us", got)
	}
	endToEnd := 180 * sim.Microsecond // 280 - 100
	if sp.Total() != endToEnd {
		t.Errorf("total = %v, want %v", sp.Total(), endToEnd)
	}
}

func TestSpanStartResets(t *testing.T) {
	var sp Span
	sp.Start(0)
	sp.Advance(StageWire, 10*sim.Microsecond)
	sp.Start(5 * sim.Microsecond)
	if sp.Total() != 0 {
		t.Errorf("restarted span total = %v, want 0", sp.Total())
	}
	sp.Advance(StageCPU, 7*sim.Microsecond)
	if sp.Stage(StageCPU) != 2*sim.Microsecond {
		t.Errorf("cpu = %v, want 2us", sp.Stage(StageCPU))
	}
}

func TestRecorderBreakdownAndReset(t *testing.T) {
	var r Recorder
	for i := 0; i < 10; i++ {
		var sp Span
		sp.Start(0)
		sp.Advance(StageQueued, 10*sim.Microsecond)
		sp.Advance(StageNAND, sim.Time(10+i)*sim.Microsecond+10*sim.Microsecond)
		sp.Advance(StageWire, 100*sim.Microsecond)
		r.Observe(&sp)
	}
	b := r.Breakdown()
	if b.Queued.Ops != 10 || b.NAND.Ops != 10 {
		t.Fatalf("ops = %d/%d, want 10/10", b.Queued.Ops, b.NAND.Ops)
	}
	if b.Queued.MeanUS != 10 {
		t.Errorf("queued mean = %v, want 10", b.Queued.MeanUS)
	}
	// Stage means are additive: they must sum to the end-to-end mean.
	if math.Abs(b.SumMeanUS()-100) > 1e-9 {
		t.Errorf("stage mean sum = %v, want 100", b.SumMeanUS())
	}
	r.Reset()
	if got := r.Breakdown().Queued.Ops; got != 0 {
		t.Errorf("after reset, queued ops = %d", got)
	}
}

func TestBacklogSlope(t *testing.T) {
	// Lag growing at half of simulated time: clearly saturated.
	var over Backlog
	for i := 0; i < 200; i++ {
		at := float64(i) * 100 // µs
		over.Observe(at, 0.5*at)
	}
	if g := over.Growth(); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("growth = %v, want 0.5", g)
	}
	if !over.Saturated() {
		t.Error("overloaded backlog not flagged saturated")
	}

	// Bounded lag (stable queue): slope ~0, never saturated.
	var stable Backlog
	for i := 0; i < 200; i++ {
		lag := 0.0
		if i%3 == 0 {
			lag = 25 // occasional bounded burst
		}
		stable.Observe(float64(i)*100, lag)
	}
	if stable.Saturated() {
		t.Errorf("stable backlog flagged saturated (growth %v)", stable.Growth())
	}

	// Too few samples: never saturated regardless of slope.
	var few Backlog
	for i := 0; i < MinSatSamples-1; i++ {
		few.Observe(float64(i)*100, float64(i)*100)
	}
	if few.Saturated() {
		t.Error("undersampled backlog flagged saturated")
	}

	// Degenerate inputs: no samples / single arrival time.
	var empty Backlog
	if empty.Growth() != 0 || empty.Saturated() {
		t.Error("empty backlog not zero")
	}
	var point Backlog
	point.Observe(100, 5)
	point.Observe(100, 9)
	if g := point.Growth(); g != 0 {
		t.Errorf("single-x growth = %v, want 0", g)
	}
	// Negative lag clamps to zero.
	var neg Backlog
	neg.Observe(100, -5)
	if neg.sumY != 0 {
		t.Errorf("negative lag recorded: %v s", neg.sumY)
	}
}
