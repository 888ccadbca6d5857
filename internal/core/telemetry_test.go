package core

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// phasePair builds a precondition(SW)+measure(SR) scenario with the given
// record flags.
func phasePair(preReqs, measReqs int, preRec, measRec bool) workload.Spec {
	pre := workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26,
		Requests: preReqs, Seed: 7, Record: preRec,
	}
	meas := workload.Spec{
		Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 26,
		Requests: measReqs, Seed: 7, Record: measRec,
	}
	return workload.Spec{Phases: []workload.Spec{pre, meas}}
}

// TestPhaseRecordCombinations pins the measured-window semantics for every
// record-flag combination of a two-phase scenario: flagged phases form the
// window; no flags at all means the legacy whole-run measurement.
func TestPhaseRecordCombinations(t *testing.T) {
	const preReqs, measReqs = 300, 200
	cases := []struct {
		name            string
		preRec, measRec bool
		wantOps         uint64
		wantReads       uint64
		wantWrites      uint64
	}{
		{"no-flags-records-all", false, false, preReqs + measReqs, measReqs, preReqs},
		{"measure-only", false, true, measReqs, measReqs, 0},
		{"precondition-only", true, false, preReqs, 0, preReqs},
		{"both-flagged", true, true, preReqs + measReqs, measReqs, preReqs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runWorkload(config.Default(), phasePair(preReqs, measReqs, tc.preRec, tc.measRec), ModeFull)
			if err != nil {
				t.Fatal(err)
			}
			if res.AllLat.Ops != tc.wantOps {
				t.Errorf("AllLat.Ops = %d, want %d", res.AllLat.Ops, tc.wantOps)
			}
			if res.ReadLat.Ops != tc.wantReads {
				t.Errorf("ReadLat.Ops = %d, want %d", res.ReadLat.Ops, tc.wantReads)
			}
			if res.WriteLat.Ops != tc.wantWrites {
				t.Errorf("WriteLat.Ops = %d, want %d", res.WriteLat.Ops, tc.wantWrites)
			}
			// The stage breakdown covers exactly the same window.
			if got := res.Stages.Queued.Ops; got != tc.wantOps {
				t.Errorf("stage ops = %d, want %d", got, tc.wantOps)
			}
			if res.Completed != preReqs+measReqs {
				t.Errorf("Completed = %d, want %d (raw counters cover the whole run)", res.Completed, preReqs+measReqs)
			}
		})
	}
}

// TestMeasureWindowExcludesPrecondition is the acceptance scenario: a
// precondition -> measure run must report only the measure window, byte for
// byte equal in op count to the measure phase, with zero precondition
// (write) ops leaking in.
func TestMeasureWindowExcludesPrecondition(t *testing.T) {
	res, err := runWorkload(config.Default(), phasePair(400, 250, false, true), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteLat.Ops != 0 {
		t.Errorf("%d precondition write ops leaked into the measured window", res.WriteLat.Ops)
	}
	if res.ReadLat.Ops != 250 || res.AllLat.Ops != 250 {
		t.Errorf("measured ops = %d reads / %d all, want 250/250", res.ReadLat.Ops, res.AllLat.Ops)
	}
	if res.MBps <= 0 {
		t.Errorf("measured-window throughput %v", res.MBps)
	}
}

// TestRecordWindowResetsBetweenMeasuredPhases: crossing from an unrecorded
// phase into a recorded one starts a fresh window, so a
// measure -> precondition -> measure scenario reports only the last window.
func TestRecordWindowResetsBetweenMeasuredPhases(t *testing.T) {
	mk := func(p trace.Pattern, reqs int, rec bool) workload.Spec {
		return workload.Spec{
			Pattern: p, BlockSize: 4096, SpanBytes: 1 << 26,
			Requests: reqs, Seed: 7, Record: rec,
		}
	}
	w := workload.Spec{Phases: []workload.Spec{
		mk(trace.SeqRead, 150, true),
		mk(trace.SeqWrite, 100, false),
		mk(trace.SeqRead, 75, true),
	}}
	res, err := runWorkload(config.Default(), w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllLat.Ops != 75 {
		t.Errorf("final window ops = %d, want 75 (stats must reset at the second record boundary)", res.AllLat.Ops)
	}
	if res.Completed != 325 {
		t.Errorf("Completed = %d, want 325", res.Completed)
	}
}

// TestStageSumsMatchEndToEnd: watermark attribution makes the per-stage
// means additive — their sum must equal the end-to-end mean latency for
// every workload shape (tolerance covers picosecond->µs float conversion
// and per-stage integer division only).
func TestStageSumsMatchEndToEnd(t *testing.T) {
	workloads := map[string]workload.Spec{
		"seq-read":  {Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 400, Seed: 7},
		"seq-write": {Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 400, Seed: 7},
		"mixed-zipf": {
			Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 300, Seed: 7,
			WriteFrac: 0.3, Skew: workload.Skew{Kind: workload.SkewZipf, Theta: 0.9},
		},
		"phased": phasePair(200, 150, false, true),
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(config.Default(), w, ModeFull)
			if err != nil {
				t.Fatal(err)
			}
			sum := res.Stages.SumMeanUS()
			if res.AllLat.MeanUS <= 0 {
				t.Fatal("no latency measured")
			}
			if diff := math.Abs(sum - res.AllLat.MeanUS); diff > 0.05 {
				t.Errorf("stage means sum to %.3fus, end-to-end mean %.3fus (diff %.4f)",
					sum, res.AllLat.MeanUS, diff)
			}
		})
	}
}

// TestSaturationDetection covers the open-loop saturation edge cases: a
// clearly overloaded Poisson process must be flagged with a growing
// backlog, light load and closed-loop runs must not, and an
// exactly-at-capacity run must complete with a self-consistent verdict.
func TestSaturationDetection(t *testing.T) {
	base := workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 1200, Seed: 7,
	}

	closed, err := runWorkload(config.Default(), base, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Saturated || closed.BacklogGrowth != 0 {
		t.Errorf("closed loop: saturated=%v growth=%v, want false/0", closed.Saturated, closed.BacklogGrowth)
	}
	// Device capacity in IOPS from the closed-loop steady state.
	capIOPS := closed.MBps * 1e6 / 4096
	if capIOPS <= 0 {
		t.Fatal("no closed-loop throughput")
	}

	run := func(rate float64) Result {
		w := base
		w.Arrival = workload.Arrival{Kind: workload.ArrivalPoisson, RateIOPS: rate}
		res, err := runWorkload(config.Default(), w, ModeFull)
		if err != nil {
			t.Fatalf("poisson %.0f: %v", rate, err)
		}
		return res
	}

	over := run(5 * capIOPS)
	if !over.Saturated {
		t.Errorf("5x capacity not flagged saturated (growth %v)", over.BacklogGrowth)
	}
	if over.BacklogGrowth <= telemetry.SatGrowthThreshold {
		t.Errorf("5x capacity growth %v <= threshold %v", over.BacklogGrowth, telemetry.SatGrowthThreshold)
	}

	light := run(0.2 * capIOPS)
	if light.Saturated {
		t.Errorf("0.2x capacity flagged saturated (growth %v)", light.BacklogGrowth)
	}

	// Exactly at capacity: the queue is null-recurrent, so the verdict may
	// fall either side of the threshold — but the run must complete, the
	// growth must be finite, and flag and growth must agree.
	atCap := run(capIOPS)
	if math.IsNaN(atCap.BacklogGrowth) || math.IsInf(atCap.BacklogGrowth, 0) {
		t.Fatalf("at-capacity growth not finite: %v", atCap.BacklogGrowth)
	}
	if atCap.Saturated != (atCap.BacklogGrowth > telemetry.SatGrowthThreshold) {
		t.Errorf("at-capacity verdict %v inconsistent with growth %v", atCap.Saturated, atCap.BacklogGrowth)
	}
	if atCap.Completed != uint64(base.Requests) {
		t.Errorf("at-capacity run completed %d of %d", atCap.Completed, base.Requests)
	}
	// Sanity ordering: more offered load never shrinks backlog growth.
	if over.BacklogGrowth < light.BacklogGrowth {
		t.Errorf("overload growth %v < light-load growth %v", over.BacklogGrowth, light.BacklogGrowth)
	}
}

// TestZeroLengthMeasurePhaseRejected: a phase with zero requests cannot
// express "an empty measure window" — validation rejects it up front.
func TestZeroLengthMeasurePhaseRejected(t *testing.T) {
	w := workload.Spec{Phases: []workload.Spec{
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 100, Seed: 7},
		{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 0, Seed: 7, Record: true},
	}}
	if err := w.Validate(); err == nil {
		t.Fatal("zero-length measure phase accepted")
	}
	if _, err := runWorkload(config.Default(), w, ModeFull); err == nil {
		t.Fatal("zero-length measure phase ran")
	}
}

// TestQueuedStageTracksWindowWait cross-checks the queued-stage attribution
// against the command window's own wait accounting: under a saturating
// closed loop both must report substantial queueing, and the window's total
// wait must not exceed the queued stage's total (the stage also counts
// arrival backlog).
func TestQueuedStageTracksWindowWait(t *testing.T) {
	p, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 800, Seed: 7}
	res, err := p.Run(w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	queuedTotal := res.Stages.Queued.MeanUS * float64(res.Stages.Queued.Ops)
	windowWait := p.Host.WindowWait().Microseconds()
	if windowWait <= 0 {
		t.Fatal("closed loop at depth never waited for the window")
	}
	// The queued stage ends at window admission, so per command it is at
	// least the window wait; allow 1% slack for histogram mean rounding.
	if queuedTotal < 0.99*windowWait {
		t.Errorf("queued stage total %.0fus < window wait total %.0fus", queuedTotal, windowWait)
	}
}
