// Package trace records device-wide resource activity as busy/idle
// intervals, queue-depth samples and command flow steps, and aggregates them
// into utilization timelines. Where package telemetry answers "which pipeline
// stage did this command's latency go to", package trace answers "what was
// each physical resource doing, and when" — the contention view the paper's
// fine-grained exploration needs to explain *why* a configuration saturates.
//
// The Tracer is pull-free and allocation-bounded: every resource owns a
// fixed-size bin timeline that doubles its bin width (merging neighbours)
// when the simulation outgrows it, and the optional raw event buffer is
// capped, dropping (and counting) overflow. All recording methods are safe
// on a nil *Tracer, so instrumented layers guard a single pointer and the
// zero-tracing hot path stays allocation-free.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind classifies a registered resource; it selects the aggregate bucket the
// resource's busy fraction contributes to and (for dies) timeline recording.
type Kind uint8

// Resource kinds, one per modeled hardware block.
const (
	// KindDie is a NAND die (per-op busy split, heatmap row).
	KindDie Kind = iota
	// KindBus is an ONFI channel data/command bus.
	KindBus
	// KindDRAM is a DDR buffer device.
	KindDRAM
	// KindECC is an ECC codec engine.
	KindECC
	// KindCPU is an embedded firmware core.
	KindCPU
	// KindAHB is an AHB interconnect layer.
	KindAHB
	// KindHost is a host-link lane (rx or tx).
	KindHost
	// KindSQ is a host submission queue (depth-sampled, never busy).
	KindSQ

	// NumKinds is the number of resource kinds.
	NumKinds
)

// kindNames indexes Kind.String.
var kindNames = [NumKinds]string{"die", "bus", "dram", "ecc", "cpu", "ahb", "host", "sq"}

// String names the kind (stable: used in reports and Perfetto track names).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "?"
}

// Op classifies what a resource was busy doing during an interval.
type Op uint8

// Interval operations.
const (
	// OpBusy is generic occupancy (ECC, CPU, host links).
	OpBusy Op = iota
	// OpRead is a host-facing read (tR on a die, read burst on DRAM).
	OpRead
	// OpWrite is a DRAM write burst.
	OpWrite
	// OpProgram is a host-facing page program (tPROG).
	OpProgram
	// OpErase is a block erase.
	OpErase
	// OpGCRead is a garbage-collection relocation read.
	OpGCRead
	// OpGCProgram is the GC share of a page-program batch.
	OpGCProgram
	// OpXfer is a data/command transfer window (ONFI bus, AHB grant).
	OpXfer

	// NumOps is the number of interval operations.
	NumOps
)

// opNames indexes Op.String.
var opNames = [NumOps]string{"busy", "read", "write", "program", "erase", "gc_read", "gc_program", "xfer"}

// String names the op (stable: used as Perfetto slice names and report keys).
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "?"
}

// Options configures a Tracer.
type Options struct {
	// Events enables the raw event buffer needed for Perfetto export.
	// Aggregated utilization (timelines, busy fractions, depth stats) is
	// always collected; raw events cost memory proportional to run length.
	Events bool
	// MaxEvents caps the raw event buffer; overflow is dropped and counted.
	// Zero means DefaultMaxEvents.
	MaxEvents int
	// Bins is the fixed number of timeline bins per die resource. Zero means
	// DefaultBins.
	Bins int
}

// Default Options values.
const (
	DefaultMaxEvents = 1 << 20
	DefaultBins      = 64
	// initialBinDur is the starting timeline bin width (1 µs); bins merge
	// pairwise and the width doubles whenever the run outgrows the window,
	// so memory stays fixed at Bins entries per die.
	initialBinDur = sim.Time(1_000_000) // 1 µs in picoseconds
)

// evKind discriminates raw event records.
type evKind uint8

const (
	evSlice evKind = iota
	evCounter
	evFlow
	evCmdBegin
	evCmdEnd
)

// event is one raw trace record. Events are appended in kernel order, so the
// buffer is monotonic in start time — the Perfetto writer relies on that.
type event struct {
	kind       evKind
	op         Op
	res        int32
	depth      int32
	flow       int64
	start, end sim.Time
}

// timeline is a fixed-memory busy-time histogram over simulated time.
type timeline struct {
	bins   []sim.Time
	binDur sim.Time
}

// coverTo widens the bins (merging pairs, doubling binDur) until t fits.
func (tl *timeline) coverTo(t sim.Time) {
	for t > tl.binDur*sim.Time(len(tl.bins)) {
		half := len(tl.bins) / 2
		for i := 0; i < half; i++ {
			tl.bins[i] = tl.bins[2*i] + tl.bins[2*i+1]
		}
		for i := half; i < len(tl.bins); i++ {
			tl.bins[i] = 0
		}
		tl.binDur *= 2
	}
}

// add charges the interval [start, end) across the bins it overlaps.
func (tl *timeline) add(start, end sim.Time) {
	if end <= start {
		return
	}
	tl.coverTo(end)
	for t := start; t < end; {
		bin := int(t / tl.binDur)
		edge := sim.Time(bin+1) * tl.binDur
		if edge > end {
			edge = end
		}
		tl.bins[bin] += edge - t
		t = edge
	}
}

// resource is one registered hardware block's accumulated activity.
type resource struct {
	name string
	kind Kind

	busy [NumOps]sim.Time
	ops  [NumOps]uint64

	tl *timeline // die resources only

	// Queue-depth integration (SQ and die-queue resources).
	depth     int
	depthAt   sim.Time
	depthInt  float64 // ∫ depth dt, in depth·picoseconds
	depthPeak int
	sampled   bool
}

// Tracer collects resource activity for one simulation run. The zero value
// is unusable; build one with New. All recording methods are nil-safe.
//
//ssdx:nilhook
type Tracer struct {
	opt Options
	res []*resource

	events  []event
	dropped uint64
	flows   map[int64]int32 // flow id -> step count (for Perfetto arrows)
}

// SortEvents stably orders the raw event log by start time. The sharded
// core runs its clock domains' windows one after another, so its log is in
// domain order within each window until sorted once after the run.
func (t *Tracer) SortEvents() {
	if t == nil {
		return
	}
	sort.SliceStable(t.events, func(i, j int) bool { return t.events[i].start < t.events[j].start })
}

// New builds a Tracer with opt (zero fields take defaults).
func New(opt Options) *Tracer {
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultMaxEvents
	}
	if opt.Bins <= 0 {
		opt.Bins = DefaultBins
	}
	t := &Tracer{opt: opt}
	if opt.Events {
		t.flows = make(map[int64]int32)
	}
	return t
}

// Register adds a resource and returns its id. Die resources get a timeline.
func (t *Tracer) Register(kind Kind, name string) int32 {
	if t == nil {
		return -1
	}
	r := &resource{name: name, kind: kind}
	if kind == KindDie {
		r.tl = &timeline{bins: make([]sim.Time, t.opt.Bins), binDur: initialBinDur}
	}
	t.res = append(t.res, r)
	return int32(len(t.res) - 1)
}

// Interval records resource res busy with op over [start, end).
func (t *Tracer) Interval(res int32, op Op, start, end sim.Time) {
	if t == nil || res < 0 || end <= start {
		return
	}
	r := t.res[res]
	r.busy[op] += end - start
	r.ops[op]++
	if r.tl != nil {
		r.tl.add(start, end)
	}
	if t.opt.Events {
		t.log(event{kind: evSlice, op: op, res: res, start: start, end: end})
	}
}

// Depth records resource res's queue depth changing to depth at now. The
// mean is time-weighted (integrated between samples).
func (t *Tracer) Depth(res int32, depth int, now sim.Time) {
	if t == nil || res < 0 {
		return
	}
	r := t.res[res]
	r.depthInt += float64(r.depth) * float64(now-r.depthAt)
	r.depth, r.depthAt, r.sampled = depth, now, true
	if depth > r.depthPeak {
		r.depthPeak = depth
	}
	if t.opt.Events {
		t.log(event{kind: evCounter, res: res, depth: int32(depth), start: now})
	}
}

// FlowStep marks command flow `flow` passing through resource res at ts;
// the Perfetto exporter draws arrows between consecutive steps of a flow.
func (t *Tracer) FlowStep(res int32, flow int64, ts sim.Time) {
	if t == nil || !t.opt.Events || flow == 0 || res < 0 {
		return
	}
	t.log(event{kind: evFlow, res: res, flow: flow, start: ts})
}

// CommandStart opens command flow `flow` (an async span on the command
// track) at ts, labelled with op.
func (t *Tracer) CommandStart(flow int64, op Op, ts sim.Time) {
	if t == nil || !t.opt.Events || flow == 0 {
		return
	}
	t.log(event{kind: evCmdBegin, op: op, flow: flow, start: ts})
}

// CommandEnd closes command flow `flow` at ts.
func (t *Tracer) CommandEnd(flow int64, ts sim.Time) {
	if t == nil || !t.opt.Events || flow == 0 {
		return
	}
	t.log(event{kind: evCmdEnd, flow: flow, start: ts})
}

// log appends a raw event, dropping (and counting) past the cap.
func (t *Tracer) log(e event) {
	if len(t.events) >= t.opt.MaxEvents {
		t.dropped++
		return
	}
	if e.kind == evFlow {
		t.flows[e.flow]++
	}
	t.events = append(t.events, e)
}

// DepthStats finalizes and returns the time-weighted mean and peak queue
// depth of resource res over [0, now).
func (t *Tracer) DepthStats(res int32, now sim.Time) (mean float64, peak int) {
	if t == nil || res < 0 {
		return 0, 0
	}
	r := t.res[res]
	if !r.sampled || now <= 0 {
		return 0, r.depthPeak
	}
	total := r.depthInt + float64(r.depth)*float64(now-r.depthAt)
	return total / float64(now), r.depthPeak
}

// EventCount reports logged and dropped raw events.
func (t *Tracer) EventCount() (logged, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	return uint64(len(t.events)), t.dropped
}

// ResourceUtil is one resource's aggregate utilization in a Report.
type ResourceUtil struct {
	// Name is the resource's registration name (e.g. "ch0-die3").
	Name string `json:"name"`
	// Kind is the resource kind ("die", "bus", ...).
	Kind string `json:"kind"`
	// BusyFrac is total busy time divided by simulated time.
	BusyFrac float64 `json:"busy_frac"`
	// Ops counts recorded intervals.
	Ops uint64 `json:"ops"`
	// OpFrac splits BusyFrac by operation (keys are Op names; only non-zero
	// ops appear).
	OpFrac map[string]float64 `json:"op_frac,omitempty"`
	// QueueMean / QueuePeak summarize depth samples (SQ resources).
	QueueMean float64 `json:"queue_mean,omitempty"`
	QueuePeak int     `json:"queue_peak,omitempty"`
}

// Heatmap is the die×time occupancy matrix: Frac[row][bin] is the fraction
// of bin time row's die spent busy.
type Heatmap struct {
	// BinNS is the bin width in simulated nanoseconds.
	BinNS float64 `json:"bin_ns"`
	// Rows names the die resources, in registration order.
	Rows []string `json:"rows"`
	// Frac is the busy fraction per row per bin.
	Frac [][]float64 `json:"frac"`
}

// Profile is the tracer's wall-clock self-profile: how fast the simulator
// ran and how much instrumentation it carried. Wall-time fields are filled
// by the runner after the run; they are excluded from deterministic exports.
type Profile struct {
	// EventsLogged / EventsDropped count raw trace records.
	EventsLogged  uint64 `json:"events_logged"`
	EventsDropped uint64 `json:"events_dropped"`
	// IntervalsByOp counts recorded busy intervals per operation.
	IntervalsByOp map[string]uint64 `json:"intervals_by_op,omitempty"`
	// KernelEvents is the discrete-event count of the run.
	KernelEvents uint64 `json:"kernel_events,omitempty"`
	// WallSeconds is the run's host wall time; EventsPerSec and
	// SimNSPerWallMS derive simulator speed from it.
	WallSeconds    float64 `json:"wall_seconds,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	SimNSPerWallMS float64 `json:"sim_ns_per_wall_ms,omitempty"`
}

// Report is the aggregated utilization view surfaced on core.Result.
type Report struct {
	// SimNS is the simulated span the fractions are normalized over.
	SimNS float64 `json:"sim_ns"`
	// Resources lists every registered resource's utilization, in
	// registration order.
	Resources []ResourceUtil `json:"resources"`
	// Heatmap is the die×time occupancy matrix (nil when no dies recorded).
	Heatmap *Heatmap `json:"heatmap,omitempty"`
	// GCFrac is the share of total die busy time spent on GC relocation.
	GCFrac float64 `json:"gc_frac"`
	// Per-kind mean busy fractions (averaged over the kind's resources).
	NANDUtil float64 `json:"nand_util"`
	BusUtil  float64 `json:"onfi_util"`
	DRAMUtil float64 `json:"dram_util"`
	ECCUtil  float64 `json:"ecc_util"`
	CPUUtil  float64 `json:"cpu_util"`
	AHBUtil  float64 `json:"ahb_util"`
	HostUtil float64 `json:"host_util"`
	// Profile is the tracer's self-profile.
	Profile Profile `json:"profile"`
}

// KindUtil returns the report's mean busy fraction for one resource kind.
func (r *Report) KindUtil(kind Kind) float64 {
	switch kind {
	case KindDie:
		return r.NANDUtil
	case KindBus:
		return r.BusUtil
	case KindDRAM:
		return r.DRAMUtil
	case KindECC:
		return r.ECCUtil
	case KindCPU:
		return r.CPUUtil
	case KindAHB:
		return r.AHBUtil
	case KindHost:
		return r.HostUtil
	}
	return 0
}

// Report aggregates everything recorded so far into a Report normalized
// over [0, simEnd). Wall-clock Profile fields are left zero for the caller.
//
//ssdx:export
func (t *Tracer) Report(simEnd sim.Time) *Report {
	if t == nil {
		return nil
	}
	rep := &Report{SimNS: float64(simEnd) / 1e3}
	var kindSum [NumKinds]float64
	var kindN [NumKinds]int
	var dieBusy, dieGC sim.Time
	var dieRows []*resource
	intervals := make(map[string]uint64)
	for i, r := range t.res {
		var total sim.Time
		u := ResourceUtil{Name: r.name, Kind: r.kind.String()}
		for op := Op(0); op < NumOps; op++ {
			if r.busy[op] == 0 && r.ops[op] == 0 {
				continue
			}
			total += r.busy[op]
			u.Ops += r.ops[op]
			intervals[op.String()] += r.ops[op]
			if simEnd > 0 {
				if u.OpFrac == nil {
					u.OpFrac = make(map[string]float64)
				}
				u.OpFrac[op.String()] = float64(r.busy[op]) / float64(simEnd)
			}
		}
		if simEnd > 0 {
			u.BusyFrac = float64(total) / float64(simEnd)
		}
		if r.sampled {
			u.QueueMean, u.QueuePeak = t.DepthStats(int32(i), simEnd)
		}
		kindSum[r.kind] += u.BusyFrac
		kindN[r.kind]++
		if r.kind == KindDie {
			dieBusy += total
			dieGC += r.busy[OpGCRead] + r.busy[OpGCProgram]
			dieRows = append(dieRows, r)
		}
		rep.Resources = append(rep.Resources, u)
	}
	mean := func(k Kind) float64 {
		if kindN[k] == 0 {
			return 0
		}
		return kindSum[k] / float64(kindN[k])
	}
	rep.NANDUtil = mean(KindDie)
	rep.BusUtil = mean(KindBus)
	rep.DRAMUtil = mean(KindDRAM)
	rep.ECCUtil = mean(KindECC)
	rep.CPUUtil = mean(KindCPU)
	rep.AHBUtil = mean(KindAHB)
	rep.HostUtil = mean(KindHost)
	if dieBusy > 0 {
		rep.GCFrac = float64(dieGC) / float64(dieBusy)
	}
	if len(dieRows) > 0 && simEnd > 0 {
		// Normalize every die's timeline to a common bin width first.
		for _, r := range dieRows {
			r.tl.coverTo(simEnd)
		}
		var binDur sim.Time
		for _, r := range dieRows {
			if r.tl.binDur > binDur {
				binDur = r.tl.binDur
			}
		}
		hm := &Heatmap{BinNS: float64(binDur) / 1e3}
		nbins := int((simEnd + binDur - 1) / binDur)
		for _, r := range dieRows {
			for r.tl.binDur < binDur {
				r.tl.coverTo(r.tl.binDur * sim.Time(len(r.tl.bins)) * 2)
			}
			row := make([]float64, nbins)
			for i := 0; i < nbins && i < len(r.tl.bins); i++ {
				row[i] = float64(r.tl.bins[i]) / float64(binDur)
			}
			hm.Rows = append(hm.Rows, r.name)
			hm.Frac = append(hm.Frac, row)
		}
		rep.Heatmap = hm
	}
	rep.Profile = Profile{
		EventsLogged:  uint64(len(t.events)),
		EventsDropped: t.dropped,
	}
	if len(intervals) > 0 {
		rep.Profile.IntervalsByOp = intervals
	}
	return rep
}

// Summary renders a compact fixed-width utilization table: per-kind means
// first, then the busiest individual resources.
func (r *Report) Summary(topN int) string {
	if r == nil {
		return ""
	}
	var b []byte
	b = append(b, fmt.Sprintf("%-12s %8s\n", "resource", "busy%")...)
	for k := Kind(0); k < KindSQ; k++ {
		b = append(b, fmt.Sprintf("%-12s %7.1f%%\n", k.String(), 100*r.KindUtil(k))...)
	}
	if r.GCFrac > 0 {
		b = append(b, fmt.Sprintf("%-12s %7.1f%%\n", "gc share", 100*r.GCFrac)...)
	}
	if topN > 0 {
		hot := make([]ResourceUtil, len(r.Resources))
		copy(hot, r.Resources)
		sort.SliceStable(hot, func(i, j int) bool { return hot[i].BusyFrac > hot[j].BusyFrac })
		if len(hot) > topN {
			hot = hot[:topN]
		}
		b = append(b, fmt.Sprintf("hottest %d:\n", len(hot))...)
		for _, u := range hot {
			b = append(b, fmt.Sprintf("  %-16s %6.1f%% (%s, %d ops)\n", u.Name, 100*u.BusyFrac, u.Kind, u.Ops)...)
		}
	}
	return string(b)
}
