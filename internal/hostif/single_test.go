package hostif

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden files")

// singleStreamGolden pins every figure the single-stream player reports for
// one phased run.
const singleStreamGolden = "testdata/single_stream.golden"

// phasedStream is a single request stream with scripted per-request phase
// and record flags (workload.PhaseAware and workload.RecordAware).
type phasedStream struct {
	reqs   []trace.Request
	phases []int
	recs   []bool
	pos    int
}

func (s *phasedStream) Next() (trace.Request, bool) {
	if s.pos >= len(s.reqs) {
		return trace.Request{}, false
	}
	s.pos++
	return s.reqs[s.pos-1], true
}

func (s *phasedStream) Reset()          { s.pos = 0 }
func (s *phasedStream) Recording() bool { return s.recs[s.pos-1] }
func (s *phasedStream) PhaseIndex() int { return s.phases[s.pos-1] }

// add appends n requests of one phase.
func (s *phasedStream) add(phase int, record bool, n int, op trace.Op, arrivalUS float64) {
	for j := 0; j < n; j++ {
		s.reqs = append(s.reqs, trace.Request{ArrivalUS: arrivalUS, Op: op, LBA: int64(len(s.reqs) * 8), Bytes: 4096})
		s.phases = append(s.phases, phase)
		s.recs = append(s.recs, record)
	}
}

// singleStreamFigures is everything the single-stream player reports after
// a run, in one comparable value.
type singleStreamFigures struct {
	Completed      uint64
	WindowOps      uint64
	ReadOps        uint64
	ThroughputMBps float64
	TailMBps       float64
	Stages         telemetry.Breakdown
	Phases         []telemetry.PhaseProfile
}

// TestSingleStreamPhasedWindow pins the single-stream measured-window and
// phase bookkeeping: a measured phase, an unrecorded precondition phase and
// a second measured phase of past-due open-loop reads. The 32-slot window
// runs ahead of completions, so commands from the first measured phase are
// still in flight when the second one resets the window; those stragglers
// must stay out of the new window but land in their own phase profile.
func TestSingleStreamPhasedWindow(t *testing.T) {
	s := &phasedStream{}
	s.add(0, true, 40, trace.OpWrite, 0)
	s.add(1, false, 10, trace.OpWrite, 0)
	s.add(2, true, 30, trace.OpRead, 1)
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	if err := i.Run(s, instantDevice(k, i), func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if !drained {
		t.Fatal("single-stream run did not drain")
	}
	got := singleStreamFigures{
		Completed:      i.Stats.Completed,
		WindowOps:      i.Latency().All().Ops,
		ReadOps:        i.Latency().Read().Ops,
		ThroughputMBps: i.ThroughputMBps(),
		TailMBps:       i.TailThroughputMBps(0.5),
		Stages:         i.StageBreakdown(),
		Phases:         i.QueuePhaseProfiles(0),
	}
	if got.Completed != 80 || got.WindowOps != 30 || got.ReadOps != 30 {
		t.Errorf("completed %d, window ops %d (%d reads); want 80 and a 30-read window",
			got.Completed, got.WindowOps, got.ReadOps)
	}
	if len(got.Phases) != 3 || got.Phases[0].Ops != 40 || got.Phases[1].Ops != 10 || got.Phases[2].Ops != 30 {
		t.Fatalf("phase profiles %+v, want 40/10/30 ops", got.Phases)
	}
	if !got.Phases[0].Recorded || got.Phases[1].Recorded || !got.Phases[2].Recorded {
		t.Errorf("phase record flags wrong: %+v", got.Phases)
	}
	if got.Stages.Wire.Ops != got.WindowOps {
		t.Errorf("stage breakdown covers %d ops, window %d", got.Stages.Wire.Ops, got.WindowOps)
	}

	js, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	js = append(js, '\n')
	if *updateGolden {
		if err := os.WriteFile(singleStreamGolden, js, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(singleStreamGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(js, want) {
		t.Errorf("single-stream figures drifted from %s:\n got: %s\nwant: %s", singleStreamGolden, js, want)
	}
}
