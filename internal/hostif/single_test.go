package hostif

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden files")

// singleStreamGolden pins every figure the single-stream player reports for
// one phased run.
const singleStreamGolden = "testdata/single_stream.golden"

// chain compiles request lists into a declared phase chain, one replayed
// trace file per phase; record flags the measured phases (nil: none is
// flagged, so the whole chain is measured).
func chain(t *testing.T, record []bool, phases ...[]trace.Request) *workload.Stream {
	t.Helper()
	spec := workload.Spec{}
	for p, reqs := range phases {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("phase%d.trace", p))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(f, reqs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		spec.Phases = append(spec.Phases, workload.Spec{TracePath: path, Record: record != nil && record[p]})
	}
	st, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// seqReqs builds n requests of one op, numbered on from first, all arriving at
// arrivalUS.
func seqReqs(first, n int, op trace.Op, arrivalUS float64) []trace.Request {
	out := make([]trace.Request, n)
	for j := range out {
		out[j] = trace.Request{ArrivalUS: arrivalUS, Op: op, LBA: int64((first + j) * 8), Bytes: 4096}
	}
	return out
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
	s := chain(t, []bool{true, false, true},
		seqReqs(0, 40, trace.OpWrite, 0), seqReqs(40, 10, trace.OpWrite, 0), seqReqs(50, 30, trace.OpRead, 1))
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
