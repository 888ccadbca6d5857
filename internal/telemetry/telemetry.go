// Package telemetry attributes per-request latency to pipeline stages — the
// paper's fine-grained breakdown philosophy applied to the latency path
// instead of throughput. Every host command carries a Span; each layer of
// the platform (host interface, CPU complex, DRAM/AHB, channel controller,
// NAND array, ECC) advances the span's watermark as its contribution to the
// command completes, and a Recorder aggregates the finished spans into
// per-stage latency distributions. A Backlog regressor watches open-loop
// arrival lag and flags saturation when offered load exceeds device
// capacity.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Stage is one segment of a command's service pipeline, in rough pipeline
// order: command-window queueing, host-link wire occupancy, firmware/FTL
// processing, AHB+DRAM buffering, channel-controller occupancy, NAND array
// time, and ECC encode/decode.
type Stage uint8

// Pipeline stages.
const (
	// StageQueued is host-side queueing: command-window admission wait plus
	// any open-loop arrival backlog (time between the declared arrival and
	// the command capsule starting onto the wire).
	StageQueued Stage = iota
	// StageWire is host-link occupancy: command/completion capsules and
	// data bursts on the rx/tx links, including link contention.
	StageWire
	// StageCPU is firmware command processing / FTL lookup on the embedded
	// CPU complex.
	StageCPU
	// StageDRAM is AHB interconnect plus DDR buffer transfer time on the
	// command's critical path (host DMA in/out of the buffers).
	StageDRAM
	// StageChan is channel-controller occupancy excluding data cycles:
	// per-die command queueing (reads and writes alike — multi-plane program
	// batches carry per-page span lists, so even pages of different commands
	// batched together keep their own attribution), command/address cycles on
	// the read path, and multi-plane batch-accumulation wait on the write
	// path.
	StageChan
	// StageBus is ONFI data-bus occupancy on the critical path: data-out
	// cycles of a read, command/address plus data-in cycles of a batched
	// program.
	StageBus
	// StageNAND is NAND array time (tR/tPROG) on the critical path. For
	// writes it also covers write-cache admission backpressure — time a
	// command spends waiting for the flash drain to free dirty-page slots.
	StageNAND
	// StageECC is ECC engine time on the critical path: decode on the read
	// path, encode (the write batch's prep stage) on the program path.
	StageECC

	// NumStages is the number of pipeline stages.
	NumStages
)

// stageNames indexes Stage.String.
var stageNames = [NumStages]string{"queued", "wire", "cpu", "dram", "chan", "bus", "nand", "ecc"}

// String names the stage (stable: used as CSV column prefixes).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "?"
}

// Stages lists every stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span is one command's stage timeline. Attribution is by watermark: Start
// pins the span to the command's queue time, and each instrumentation point
// calls Advance(stage, now), which charges the interval since the previous
// watermark to that stage and moves the watermark up. Concurrent per-page
// sub-operations therefore attribute each wall-clock interval of the
// command's life to the stage whose boundary event ended it (the critical
// path), and the stage durations always sum exactly to the watermark minus
// the start — after the final Advance at completion, exactly the
// end-to-end latency.
type Span struct {
	start sim.Time
	mark  sim.Time
	acc   [NumStages]sim.Time

	// Flow, when non-zero, is the owning command's trace-flow id: resource
	// instrumentation stamps flow steps with it so the event tracer can draw
	// the command's path across resources. Zero (the default) means
	// untraced.
	Flow int64
}

// Start pins the span's origin (and watermark) to t.
func (s *Span) Start(t sim.Time) {
	s.start, s.mark = t, t
	s.acc = [NumStages]sim.Time{}
	s.Flow = 0
}

// Advance charges the time since the watermark to stage st and raises the
// watermark to now. A now at or before the watermark is a no-op (the
// interval was already attributed to an earlier-finishing event).
func (s *Span) Advance(st Stage, now sim.Time) {
	if now <= s.mark {
		return
	}
	s.acc[st] += now - s.mark
	s.mark = now
}

// Stage returns the accumulated time of one stage.
func (s *Span) Stage(st Stage) sim.Time { return s.acc[st] }

// Total returns the sum of all stage times — the watermark minus the start.
func (s *Span) Total() sim.Time {
	var t sim.Time
	for _, d := range s.acc {
		t += d
	}
	return t
}

// Recorder aggregates finished spans into per-stage latency distributions,
// in the same fixed-memory histograms the end-to-end collector uses.
type Recorder struct {
	stages [NumStages]workload.Histogram
}

// Observe folds one finished span into the distributions.
func (r *Recorder) Observe(sp *Span) {
	for st := Stage(0); st < NumStages; st++ {
		r.stages[st].Record(sp.acc[st])
	}
}

// Reset clears every distribution (phase-boundary measurement reset).
func (r *Recorder) Reset() { *r = Recorder{} }

// Merge folds other's distributions into r (per-tenant recorders merge into
// the drive-level breakdown).
func (r *Recorder) Merge(other *Recorder) {
	for st := Stage(0); st < NumStages; st++ {
		r.stages[st].Merge(&other.stages[st])
	}
}

// Breakdown snapshots every stage's summary.
func (r *Recorder) Breakdown() Breakdown {
	var b Breakdown
	for st := Stage(0); st < NumStages; st++ {
		b.set(st, r.stages[st].Stats())
	}
	return b
}

// Breakdown is the per-stage latency summary a Result reports: one LatStats
// per pipeline stage. Stage means are additive — their sum equals the
// end-to-end mean latency (percentiles are not additive).
type Breakdown struct {
	Queued workload.LatStats `json:"queued"`
	Wire   workload.LatStats `json:"wire"`
	CPU    workload.LatStats `json:"cpu"`
	DRAM   workload.LatStats `json:"dram"`
	Chan   workload.LatStats `json:"chan"`
	Bus    workload.LatStats `json:"bus"`
	NAND   workload.LatStats `json:"nand"`
	ECC    workload.LatStats `json:"ecc"`
}

// set stores one stage's summary by index.
func (b *Breakdown) set(st Stage, s workload.LatStats) {
	switch st {
	case StageQueued:
		b.Queued = s
	case StageWire:
		b.Wire = s
	case StageCPU:
		b.CPU = s
	case StageDRAM:
		b.DRAM = s
	case StageChan:
		b.Chan = s
	case StageBus:
		b.Bus = s
	case StageNAND:
		b.NAND = s
	case StageECC:
		b.ECC = s
	}
}

// ByStage returns one stage's summary.
func (b Breakdown) ByStage(st Stage) workload.LatStats {
	switch st {
	case StageQueued:
		return b.Queued
	case StageWire:
		return b.Wire
	case StageCPU:
		return b.CPU
	case StageDRAM:
		return b.DRAM
	case StageChan:
		return b.Chan
	case StageBus:
		return b.Bus
	case StageNAND:
		return b.NAND
	case StageECC:
		return b.ECC
	}
	return workload.LatStats{}
}

// SumMeanUS returns the sum of the stage mean latencies — by construction
// the end-to-end mean latency (up to float rounding).
func (b Breakdown) SumMeanUS() float64 {
	var sum float64
	for st := Stage(0); st < NumStages; st++ {
		sum += b.ByStage(st).MeanUS
	}
	return sum
}

// PhaseProfile is one workload phase's share of a run: its end-to-end
// latency distribution and stage breakdown, kept even for unrecorded
// (precondition) phases. The measured-window machinery still resets the
// headline figures at window boundaries; phase profiles exist so a
// multi-phase scenario reports every phase's stage breakdown instead of
// only the last window's.
type PhaseProfile struct {
	// Index is the phase's position in the scenario (0-based).
	Index int `json:"index"`
	// Label is a compact description of the phase's workload, filled in by
	// the layer that knows the scenario (empty below it).
	Label string `json:"label,omitempty"`
	// Recorded reports whether the phase belonged to the measured window.
	Recorded bool `json:"recorded"`
	// Ops counts the phase's completed commands.
	Ops uint64 `json:"ops"`
	// All is the phase's end-to-end command latency distribution.
	All workload.LatStats `json:"all_lat"`
	// Stages attributes the same commands' latency to pipeline stages; the
	// stage means sum to All.MeanUS exactly as in the window breakdown.
	Stages Breakdown `json:"stages"`
}
