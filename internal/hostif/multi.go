package hostif

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/metrics"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MultiSource supplies the multi-queue trace player: one request stream per
// submission queue, per-queue outstanding-command bounds, and the
// arbitration decision applied every time a command-window slot frees. The
// nvme package's compiled tenant set is the canonical implementation; the
// interface is structural so hostif carries no dependency on it.
type MultiSource interface {
	// NumQueues returns the number of submission queues (>= 1).
	NumQueues() int
	// QueueName labels queue q for diagnostics.
	QueueName(q int) string
	// QueueDepth bounds queue q's outstanding commands (submission-queue
	// entries plus dispatched-but-incomplete). 0 defers to the host
	// interface's command window depth.
	QueueDepth(q int) int
	// Stream is the workload stream behind queue q. The player reads the
	// record flag and phase of every request it pulls from it.
	Stream(q int) *workload.Stream
	// Next pulls queue q's next request from Stream(q) (ok=false ends that
	// queue's stream).
	Next(q int) (req trace.Request, ok bool)
	// Pick chooses which queue to service among those with a pending head
	// command. ready holds queue indices in ascending order and is never
	// empty; the return value must be one of them.
	Pick(ready []int) int
}

// streamSource is a single workload stream as a one-queue MultiSource.
type streamSource struct{ st *workload.Stream }

func (s *streamSource) NumQueues() int                 { return 1 }
func (s *streamSource) QueueName(int) string           { return "" }
func (s *streamSource) QueueDepth(int) int             { return 0 }
func (s *streamSource) Stream(int) *workload.Stream    { return s.st }
func (s *streamSource) Next(int) (trace.Request, bool) { return s.st.Next() }
func (s *streamSource) Pick(ready []int) int           { return ready[0] }

// sqEntry is one command sitting in a submission queue: pulled from the
// tenant's stream (so its latency clock is running) but not yet granted a
// command-window slot.
type sqEntry struct {
	req    trace.Request
	queued sim.Time
	record bool
	winGen uint32
	phase  int
}

// queueState is the per-submission-queue half of the player: the bounded SQ
// itself (multi-queue runs only), ingress bookkeeping, and the queue's
// private measurement state (latency, stage breakdown, throughput anchors)
// that the platform reads back per tenant after the run.
type queueState struct {
	i     *Interface
	q     int // the queue's index
	depth int
	st    *workload.Stream // the queue's workload stream (record flags, phases)

	sq        sim.FIFO[sqEntry]
	exhausted bool
	stalled   bool // ingress paused at the depth bound; completion resumes it

	// pulled is the pull chain's one pending entry: pulled from the stream,
	// waiting for its arrival time. pullFn and admitFn are the chain's
	// steps, bound once at start.
	pulled          sqEntry
	pullFn, admitFn func()

	// Measured-window state. Commands pulled from record-flagged phases
	// carry Record=true; all measurement (latency, stage breakdown,
	// throughput) covers only recorded commands, and crossing from an
	// unrecorded into a recorded phase resets the queue's window, so a
	// precondition phase never pollutes the measured figures. Streams
	// without phase structure record everything.
	recording bool   // record flag of the most recently pulled request
	recInit   bool   // a request has been pulled (transition detection armed)
	winGen    uint32 // measurement-window generation (bumped by every reset)

	outstanding  int // dispatched, not yet completed
	inflightPeak int // peak SQ + outstanding

	// lat collects per-op-class command latency (queued-to-completion, so
	// open-loop runs see window-queueing delay) in fixed memory; stageRec
	// aggregates the per-stage breakdown of the same commands.
	lat       workload.Collector
	stageRec  telemetry.Recorder
	phaseWins []phaseWindow // per-phase profiles (survive window resets)

	firstSubmit  sim.Time
	lastComplete sim.Time
	hasSubmit    bool
	bytes        uint64
	completed    uint64

	// res is the queue's trace resource id (-1 when tracing is off or for a
	// single stream): its inflight depth (SQ entries + dispatched) is
	// sampled on every change.
	res int32

	// depthGauge, when non-nil, is the queue's live metrics gauge, updated
	// on the same edges as the trace depth samples.
	depthGauge *metrics.Gauge
}

// ready returns the number of commands waiting in the SQ.
func (qs *queueState) ready() int { return qs.sq.Len() }

// push appends one entry to the SQ.
func (qs *queueState) push(e sqEntry) {
	qs.sq.Push(e)
	if n := qs.ready() + qs.outstanding; n > qs.inflightPeak {
		qs.inflightPeak = n
	}
}

// RunMulti starts the multi-queue trace player: every queue's stream is
// pulled through its bounded submission queue on its own arrival clock, and
// whenever the shared command window has a free slot the source's
// arbitration picks which queue's head enters the device. onDrained fires
// when every stream is exhausted and every command has completed. This is
// the NVMe-style front end the nvme package compiles tenant scenarios onto;
// each queue gets an SQ depth track when tracing is on and a live
// ssdx_sq_depth{tenant="<name>"} gauge when metrics are on.
func (i *Interface) RunMulti(src MultiSource, handler func(*Command), onDrained func()) error {
	if err := i.start(src, handler, onDrained); err != nil {
		return err
	}
	for q, qs := range i.qs {
		if i.tr != nil {
			qs.res = i.tr.Register(evtrace.KindSQ, src.QueueName(q))
		}
		qs.depthGauge = i.reg.Gauge(fmt.Sprintf("ssdx_sq_depth{tenant=%q}", src.QueueName(q)),
			"live submission-queue depth (ready + outstanding commands) per tenant")
	}
	for _, qs := range i.qs {
		qs.pull()
	}
	return nil
}

// pull admits the single stream's next request straight into the command
// window. It and queueState.pull are the only code the two players do not
// share: this chain recurses inside AcquireWhenFree while the queue chain
// continues through Schedule(0), so merging them changes event order and
// simulated results. That merge belongs in a benchmark change that
// regenerates the ssdxbench result digests.
//
//ssdx:hotpath
func (i *Interface) pull() {
	e, reset, ok := i.next(0)
	if !ok {
		return
	}
	if reset {
		// A single stream's measured window is the drive's: its throughput
		// anchors and completion log restart too.
		i.resetDriveWindow()
	}
	i.pulled = e
	if at := sim.FromMicroseconds(e.req.ArrivalUS); at > i.k.Now() {
		i.k.At(at, i.pullArriveFn)
		return
	}
	i.pullArrive()
}

// pullArrive queues the pulled entry for a command-window slot.
//
//ssdx:hotpath
func (i *Interface) pullArrive() {
	i.pulled = i.arrive(i.pulled)
	i.window.AcquireWhenFree(i.pullGrantFn)
}

// pullGrant submits the pulled entry into its granted window slot and keeps
// the window full by pulling the next request at once.
//
//ssdx:hotpath
func (i *Interface) pullGrant() {
	i.submit(0, i.pulled)
	i.pull()
}

// pull admits the queue's next request into its submission queue. The pull
// chain pauses at the queue's depth bound and resumes on completion, so a
// closed-loop tenant is paced by its own depth while open-loop tenants
// accumulate past-due arrivals exactly like the single-stream player.
//
//ssdx:hotpath
func (qs *queueState) pull() {
	e, _, ok := qs.i.next(qs.q)
	if !ok {
		return
	}
	qs.pulled = e
	if at := sim.FromMicroseconds(e.req.ArrivalUS); at > qs.i.k.Now() {
		qs.i.k.At(at, qs.admitFn)
		return
	}
	qs.admit()
}

// admit moves the pulled entry into the submission queue, arms the
// dispatcher and continues the pull chain unless the depth bound is
// reached.
//
//ssdx:hotpath
func (qs *queueState) admit() {
	i := qs.i
	qs.push(i.arrive(qs.pulled))
	i.sampleQueueDepth(qs)
	i.dispatch()
	if qs.ready()+qs.outstanding < qs.depth {
		// Continue the pull chain through the event queue so a deep
		// closed-loop fill never recurses depth-of-queue stack frames.
		i.k.Schedule(0, qs.pullFn)
	} else {
		qs.stalled = true
	}
}

// dispatch arms the arbitrated dispatcher: one pending command-window
// acquisition at a time, with the queue chosen at grant time — so the
// arbitration always sees the submission queues as they are when the slot
// actually frees, not as they were when it was requested.
//
//ssdx:hotpath
func (i *Interface) dispatch() {
	if i.dispatchArmed || !i.anyReady() {
		return
	}
	i.dispatchArmed = true
	i.window.AcquireWhenFree(i.dispatchGrantFn)
}

// anyReady reports whether any submission queue has a pending head.
func (i *Interface) anyReady() bool {
	for _, qs := range i.qs {
		if qs.ready() > 0 {
			return true
		}
	}
	return false
}

// dispatchGrant holds a freshly-granted window slot: arbitrate, pop the
// winning queue's head and submit it.
func (i *Interface) dispatchGrant() {
	i.dispatchArmed = false
	i.readyBuf = i.readyBuf[:0]
	for q, qs := range i.qs {
		if qs.ready() > 0 {
			i.readyBuf = append(i.readyBuf, q)
		}
	}
	if len(i.readyBuf) == 0 {
		// Only dispatch pops SQ entries, so a granted slot always finds the
		// head that armed it; release defensively if a source misbehaves.
		i.window.Release()
		return
	}
	q := i.mq.Pick(i.readyBuf)
	if q < 0 || q >= len(i.qs) || i.qs[q].ready() == 0 {
		panic(fmt.Sprintf("hostif: arbiter picked invalid queue %d from %v", q, i.readyBuf))
	}
	i.submit(q, i.qs[q].sq.Pop())
	i.dispatch()
}

// sampleQueueDepth records a queue's inflight depth (SQ + dispatched) onto
// its trace resource and live metrics gauge. No-op when both are off, as
// for a single stream, which has neither.
func (i *Interface) sampleQueueDepth(qs *queueState) {
	if qs.res >= 0 {
		i.tr.Depth(qs.res, qs.ready()+qs.outstanding, i.k.Now())
	}
	if qs.depthGauge != nil {
		qs.depthGauge.Set(int64(qs.ready() + qs.outstanding))
	}
}

// QueueDepthStats reports queue q's time-weighted mean and peak inflight
// depth from the trace timeline; without a depth track the mean is 0 and
// the peak falls back to the always-on inflight counter.
func (i *Interface) QueueDepthStats(q int) (mean float64, peak int) {
	qs := i.qs[q]
	if qs.res < 0 {
		return 0, qs.inflightPeak
	}
	return i.tr.DepthStats(qs.res, i.k.Now())
}

// resetQueueMeasurement starts a fresh measured window for one queue: its
// latency distributions, stage breakdown and throughput anchors restart,
// and commands still in flight from the queue's earlier phases are fenced
// off by the generation bump. Other tenants' windows are untouched.
func (i *Interface) resetQueueMeasurement(q int) {
	qs := i.qs[q]
	qs.winGen++
	qs.lat = workload.Collector{}
	qs.stageRec.Reset()
	qs.firstSubmit, qs.lastComplete = 0, 0
	qs.hasSubmit = false
	qs.bytes = 0
}

// cmdInWindow reports whether a command still belongs to the current
// measured window of its queue.
func (i *Interface) cmdInWindow(cmd *Command) bool {
	return cmd.winGen == i.qs[cmd.Queue].winGen
}

// QueueLatency exposes queue q's per-op-class latency collector.
func (i *Interface) QueueLatency(q int) *workload.Collector { return &i.qs[q].lat }

// QueueStageBreakdown summarises queue q's per-stage latency attribution.
func (i *Interface) QueueStageBreakdown(q int) telemetry.Breakdown {
	return i.qs[q].stageRec.Breakdown()
}

// QueueThroughputMBps reports queue q's payload throughput over its
// measured window.
func (i *Interface) QueueThroughputMBps(q int) float64 {
	qs := i.qs[q]
	dur := qs.lastComplete - qs.firstSubmit
	if dur <= 0 {
		return 0
	}
	return float64(qs.bytes) / dur.Seconds() / 1e6
}

// QueueCompleted reports how many of queue q's commands completed (whole
// run, not window-gated).
func (i *Interface) QueueCompleted(q int) uint64 { return i.qs[q].completed }

// QueueInflightPeak reports queue q's peak outstanding commands (SQ +
// dispatched).
func (i *Interface) QueueInflightPeak(q int) int { return i.qs[q].inflightPeak }
