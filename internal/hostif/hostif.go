// Package hostif models the SSD's host interface at cycle accuracy (paper
// §III-C1): a SATA II link with Native Command Queuing (up to 32 commands)
// and a PCI Express link carrying the NVMe protocol (up to 64 K commands,
// gen 1-3, variable lane count). Both expose the same command/data trace
// player front-end: a file (or synthetic stream) of operations is pulled
// through the interface's command window, each command's wire occupancy is
// modelled on full-duplex rx/tx links with protocol framing overheads, and
// completion is signalled by the platform when the device finishes.
//
// There is one player over a MultiSource of submission queues; a single
// stream (Run) is a one-queue source, so all window, latency, phase and
// depth bookkeeping is per queue. Each queue plays a compiled
// workload.Stream, whose record flag and phase the player reads after every
// pull. Only the pull chains differ (see pull).
//
// The SATA command-window limit is the microarchitectural mechanism behind
// the paper's Fig. 3 finding: with a no-cache buffer policy the 32-command
// window caps how much internal parallelism the drive can expose, flattening
// throughput regardless of channel/way/die counts; NVMe's deep queues (Fig.
// 4) remove that wall.
package hostif

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/metrics"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one host interface.
type Config struct {
	Name           string
	LineMBps       float64 // line rate after encoding (8b/10b or 128b/130b)
	DataEfficiency float64 // payload fraction during data bursts (framing)
	CmdBytes       int64   // command capsule (register FIS / SQE fetch)
	CplBytes       int64   // completion capsule (SDB FIS / CQE)
	TurnaroundNs   float64 // protocol gap per wire transfer
	QueueDepth     int     // NCQ: 32; NVMe: up to 65536
}

// SATA2 returns the SATA II (3.0 Gb/s) interface with NCQ. The paper
// validates its timing against the SATA protocol directives of ref [16].
func SATA2() Config {
	return Config{
		Name:           "sata2",
		LineMBps:       300, // 3.0 Gb/s after 8b/10b
		DataEfficiency: 0.97,
		CmdBytes:       20,   // H2D register FIS
		CplBytes:       8,    // set-device-bits FIS
		TurnaroundNs:   1500, // DMA-setup FIS exchange + bus turnaround
		QueueDepth:     32,
	}
}

// PCIe returns a PCIe+NVMe interface for the given generation and lane
// count (paper: "all PCIe configurations, from gen 1 up to gen 3 with
// variable lane numbers").
func PCIe(gen, lanes int) (Config, error) {
	var perLane float64
	switch gen {
	case 1:
		perLane = 250 // 2.5 GT/s, 8b/10b
	case 2:
		perLane = 500 // 5.0 GT/s, 8b/10b
	case 3:
		perLane = 985 // 8.0 GT/s, 128b/130b
	default:
		return Config{}, fmt.Errorf("hostif: unsupported PCIe gen %d", gen)
	}
	switch lanes {
	case 1, 2, 4, 8, 16:
	default:
		return Config{}, fmt.Errorf("hostif: unsupported lane count %d", lanes)
	}
	return Config{
		Name:           fmt.Sprintf("pcie-g%dx%d", gen, lanes),
		LineMBps:       perLane * float64(lanes),
		DataEfficiency: 0.85, // TLP header+DLLP overhead at 128 B MPS
		CmdBytes:       64,   // NVMe SQE fetch
		CplBytes:       16,   // NVMe CQE
		TurnaroundNs:   300,
		QueueDepth:     65536,
	}, nil
}

// Parse builds a Config from a name: "sata2" or "pcie-g<G>x<L>".
func Parse(name string) (Config, error) {
	if name == "sata2" || name == "sata" || name == "" {
		return SATA2(), nil
	}
	var gen, lanes int
	if n, err := fmt.Sscanf(name, "pcie-g%dx%d", &gen, &lanes); n == 2 && err == nil {
		return PCIe(gen, lanes)
	}
	return Config{}, fmt.Errorf("hostif: unknown interface %q", name)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineMBps <= 0 || c.DataEfficiency <= 0 || c.DataEfficiency > 1 {
		return fmt.Errorf("hostif: invalid link parameters %+v", c)
	}
	if c.QueueDepth < 1 {
		return errors.New("hostif: queue depth must be >= 1")
	}
	return nil
}

// wireTime returns the occupancy of moving payload bytes (plus framing) over
// the link.
func (c Config) wireTime(payload int64) sim.Time {
	bytes := float64(payload) / c.DataEfficiency
	sec := bytes / (c.LineMBps * 1e6)
	return sim.Time(sec*float64(sim.Second)) + sim.Time(c.TurnaroundNs*float64(sim.Nanosecond))
}

// IdealMBps is the analytic stand-alone throughput of the interface for a
// given block size and direction — the paper's "SATA ideal" / "PCIE ideal"
// reference columns.
func (c Config) IdealMBps(blockBytes int64, write bool) float64 {
	var rx, tx sim.Time
	if write {
		rx = c.wireTime(c.CmdBytes) + c.wireTime(blockBytes)
		tx = c.wireTime(c.CplBytes)
	} else {
		rx = c.wireTime(c.CmdBytes)
		tx = c.wireTime(blockBytes) + c.wireTime(c.CplBytes)
	}
	bottleneck := rx
	if tx > bottleneck {
		bottleneck = tx
	}
	return float64(blockBytes) / bottleneck.Seconds() / 1e6
}

// Command is one in-flight host command.
type Command struct {
	ID         int64
	Queue      int // submission-queue (tenant) index; 0 for a single stream
	Phase      int // workload phase the command was pulled in (0 for a plain spec's one-phase chain)
	Req        trace.Request
	Record     bool           // pulled inside the measured window
	Span       telemetry.Span // per-stage latency timeline (watermark attribution)
	QueuedAt   sim.Time       // released by the stream (its arrival time, or later)
	SubmitAt   sim.Time       // command capsule fully received
	DataAt     sim.Time       // write data fully received (== SubmitAt for reads)
	CompleteAt sim.Time       // completion capsule sent

	// winGen is the measurement-window generation the command was issued
	// in: a recorded command from an earlier window (still in flight when a
	// reset opened a new one) must not leak into the new window's stats.
	winGen uint32
}

// Stats aggregates interface activity.
type Stats struct {
	Completed    uint64
	BytesWritten uint64
	BytesRead    uint64
	FirstSubmit  sim.Time
	LastComplete sim.Time
	QueuePeak    int
}

// Interface is the host link + trace player.
type Interface struct {
	cfg Config
	k   *sim.Kernel

	rx     *sim.Server    // host -> device (commands, write data)
	tx     *sim.Server    // device -> host (completions, read data)
	window *sim.TokenGate // command queue depth

	handler     func(*Command)
	onDrained   func()
	nextID      int64
	outstanding int

	// The source behind the submission queues, their per-queue states
	// (latency, stage breakdown, phase profiles and measured window each),
	// and the armed-dispatcher flag that serialises window acquisition so
	// the arbitration decision is taken at grant time.
	mq            MultiSource
	qs            []*queueState
	dispatchArmed bool
	readyBuf      []int

	// completion log for steady-state (tail) throughput measurement
	// (recorded commands only)
	complTimes []sim.Time
	complBytes []int64

	// measured-window throughput anchors (recorded commands only)
	mFirstSubmit  sim.Time
	mLastComplete sim.Time
	mBytes        uint64
	mHasSubmit    bool

	// backlog watches open-loop arrival lag across the whole run (never
	// reset at phase boundaries: saturation is a property of the scenario).
	backlog telemetry.Backlog

	// Event tracing (nil when disabled): the rx/tx links are host resources,
	// submission queues get depth counters, and every command becomes a
	// trace flow connecting the resources it touched.
	tr    *evtrace.Tracer
	rxRes int32
	txRes int32

	// reg (nil when metrics are off) receives one live depth gauge per
	// submission queue of a multi-queue run.
	reg *metrics.Registry

	Stats Stats
}

// New builds an interface bound to kernel k.
func New(k *sim.Kernel, cfg Config) (*Interface, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Interface{
		cfg:    cfg,
		k:      k,
		rx:     sim.NewServer(k, nil, cfg.Name+"-rx"),
		tx:     sim.NewServer(k, nil, cfg.Name+"-tx"),
		window: sim.NewTokenGate(k, cfg.QueueDepth),
	}, nil
}

// SetTracer attaches an event tracer: the rx and tx links register as host
// resources whose service windows are recorded, and commands carry flow
// ids. Call once, before Run/RunMulti.
func (i *Interface) SetTracer(tr *evtrace.Tracer) {
	if tr == nil {
		return
	}
	i.tr = tr
	i.rxRes = tr.Register(evtrace.KindHost, i.rx.Name())
	i.txRes = tr.Register(evtrace.KindHost, i.tx.Name())
	rxRes, txRes := i.rxRes, i.txRes
	i.rx.OnServe = func(start, end sim.Time) { tr.Interval(rxRes, evtrace.OpBusy, start, end) }
	i.tx.OnServe = func(start, end sim.Time) { tr.Interval(txRes, evtrace.OpBusy, start, end) }
}

// SetMetrics attaches a live metrics registry: RunMulti registers one
// ssdx_sq_depth gauge per submission queue in it. Call once, before
// RunMulti; nil leaves metrics off.
func (i *Interface) SetMetrics(reg *metrics.Registry) { i.reg = reg }

// cmdOp maps a request's op class onto a trace op kind for the command
// track.
func cmdOp(op trace.Op) evtrace.Op {
	switch op {
	case trace.OpWrite:
		return evtrace.OpWrite
	case trace.OpRead:
		return evtrace.OpRead
	}
	return evtrace.OpBusy
}

// Config returns the interface configuration.
func (i *Interface) Config() Config { return i.cfg }

// Outstanding reports commands inside the window.
func (i *Interface) Outstanding() int { return i.outstanding }

// Run starts the trace player on a single stream: every request is pulled
// through the command window, transferred over the wire and handed to
// handler. onDrained fires when the stream is exhausted and every command
// has completed. The stream is queue 0 of a one-queue source.
func (i *Interface) Run(stream *workload.Stream, handler func(*Command), onDrained func()) error {
	var src MultiSource
	if stream != nil {
		src = &streamSource{st: stream}
	}
	if err := i.start(src, handler, onDrained); err != nil {
		return err
	}
	i.pull()
	return nil
}

// start binds the player to src: one queue state per submission queue.
func (i *Interface) start(src MultiSource, handler func(*Command), onDrained func()) error {
	if i.qs != nil {
		return errors.New("hostif: already running")
	}
	if src == nil || handler == nil {
		return errors.New("hostif: nil source or handler")
	}
	n := src.NumQueues()
	if n < 1 {
		return errors.New("hostif: multi-queue source has no queues")
	}
	i.mq = src
	i.handler = handler
	i.onDrained = onDrained
	i.qs = make([]*queueState, n)
	for q := range i.qs {
		depth := src.QueueDepth(q)
		if depth <= 0 || depth > i.cfg.QueueDepth {
			depth = i.cfg.QueueDepth
		}
		i.qs[q] = &queueState{depth: depth, st: src.Stream(q), recording: true, res: -1}
	}
	return nil
}

// next pulls queue q's next request and runs the measured-window
// bookkeeping. Pulls happen in phase order, so the generator's record flag
// transitions exactly at phase boundaries: an unrecorded -> recorded
// crossing starts a fresh measurement window for the queue (reset=true).
// ok=false once the queue's stream has ended.
func (i *Interface) next(q int) (e sqEntry, reset, ok bool) {
	qs := i.qs[q]
	if qs.exhausted {
		return e, false, false
	}
	req, ok := i.mq.Next(q)
	if !ok {
		qs.exhausted = true
		i.maybeDrained()
		return e, false, false
	}
	rec := qs.st.Recording()
	reset = rec && !qs.recording && qs.recInit
	if reset {
		i.resetQueueMeasurement(q)
	}
	qs.recording, qs.recInit = rec, true
	return sqEntry{req: req, record: rec, winGen: qs.winGen, phase: qs.st.Phase()}, reset, true
}

// atArrival runs issue at req's arrival time, or at once when that time
// has passed (or the request is closed-loop).
func (i *Interface) atArrival(req trace.Request, issue func()) {
	if at := sim.FromMicroseconds(req.ArrivalUS); at > i.k.Now() {
		i.k.At(at, issue)
	} else {
		issue()
	}
}

// arrive stamps the latency clock's start on an entry the player is issuing
// now. An open-loop request is "queued" at its declared arrival time even
// when the player pulls it late (the pull chain is gated on window
// admission, so a backed-up device accumulates past-due arrivals whose
// backlog wait must count as latency), and its lag feeds the saturation
// detector. Closed-loop requests (arrival 0) queue when pulled.
func (i *Interface) arrive(e sqEntry) sqEntry {
	e.queued = i.k.Now()
	if at := sim.FromMicroseconds(e.req.ArrivalUS); at > 0 {
		lag := sim.Time(0)
		if at < e.queued {
			e.queued, lag = at, i.k.Now()-at
		}
		i.backlog.Observe(at.Microseconds(), lag.Microseconds())
	}
	return e
}

// submit takes a granted command-window slot for queue q's entry e, models
// the command (and write-data) wire transfer, then hands the command to the
// platform.
func (i *Interface) submit(q int, e sqEntry) {
	qs := i.qs[q]
	qs.outstanding++
	i.outstanding++
	if i.outstanding > i.Stats.QueuePeak {
		i.Stats.QueuePeak = i.outstanding
	}
	req := e.req
	cmd := &Command{ID: i.nextID, Queue: q, Phase: e.phase, Req: req, QueuedAt: e.queued, Record: e.record, winGen: e.winGen}
	cmd.Span.Start(e.queued)
	// The window slot is granted: everything since the queue time was
	// host-side queueing (window admission plus arrival backlog).
	cmd.Span.Advance(telemetry.StageQueued, i.k.Now())
	if i.tr != nil {
		// ID 0 is a valid command; flow 0 means "untraced", so shift by one.
		cmd.Span.Flow = cmd.ID + 1
		i.tr.CommandStart(cmd.Span.Flow, cmdOp(req.Op), e.queued)
		i.tr.FlowStep(i.rxRes, cmd.Span.Flow, i.k.Now())
	}
	i.nextID++
	i.rx.Acquire(i.cfg.wireTime(i.cfg.CmdBytes), func(_, end sim.Time) {
		i.k.At(end, func() {
			cmd.SubmitAt = end
			cmd.Span.Advance(telemetry.StageWire, end)
			if i.Stats.FirstSubmit == 0 && i.Stats.Completed == 0 {
				i.Stats.FirstSubmit = end
			}
			if cmd.Record && i.cmdInWindow(cmd) {
				if !i.mHasSubmit {
					i.mFirstSubmit, i.mHasSubmit = end, true
				}
				if !qs.hasSubmit {
					qs.firstSubmit, qs.hasSubmit = end, true
				}
			}
			if req.Op == trace.OpWrite && req.Bytes > 0 {
				i.rx.Acquire(i.cfg.wireTime(req.Bytes), func(_, dEnd sim.Time) {
					i.k.At(dEnd, func() {
						cmd.DataAt = dEnd
						cmd.Span.Advance(telemetry.StageWire, dEnd)
						i.handler(cmd)
					})
				})
				return
			}
			cmd.DataAt = end
			i.handler(cmd)
		})
	})
}

// Complete is called by the platform when the device has finished a command.
// The interface models the device-to-host wire traffic (read data plus the
// completion capsule), releases the command window slot and accounts stats.
func (i *Interface) Complete(cmd *Command) {
	finish := func() {
		i.tx.Acquire(i.cfg.wireTime(i.cfg.CplBytes), func(_, end sim.Time) {
			i.k.At(end, func() {
				cmd.CompleteAt = end
				cmd.Span.Advance(telemetry.StageWire, end)
				if i.tr != nil {
					i.tr.FlowStep(i.txRes, cmd.Span.Flow, end)
					i.tr.CommandEnd(cmd.Span.Flow, end)
				}
				i.Stats.Completed++
				i.Stats.LastComplete = end
				switch cmd.Req.Op {
				case trace.OpWrite:
					i.Stats.BytesWritten += uint64(cmd.Req.Bytes)
				case trace.OpRead:
					i.Stats.BytesRead += uint64(cmd.Req.Bytes)
				}
				qs := i.qs[cmd.Queue]
				if cmd.Record && i.cmdInWindow(cmd) {
					i.complTimes = append(i.complTimes, end)
					i.complBytes = append(i.complBytes, cmd.Req.Bytes)
					i.mLastComplete = end
					qs.lastComplete = end
					if cmd.Req.Op == trace.OpWrite || cmd.Req.Op == trace.OpRead {
						i.mBytes += uint64(cmd.Req.Bytes)
						qs.bytes += uint64(cmd.Req.Bytes)
					}
					// Distributions live per queue; the drive-level view
					// merges them on demand, so a tenant's window reset
					// never smears another's.
					qs.lat.Record(cmd.Req.Op, end-cmd.QueuedAt)
					qs.stageRec.Observe(&cmd.Span)
				}
				// Phase profiles cover every command of a phased stream —
				// unrecorded (precondition) phases and stale-window
				// stragglers too. Phase-less streams skip the accounting:
				// their lone profile would only be discarded.
				if qs.st.Phased() {
					qs.phaseWins = observePhase(qs.phaseWins, cmd, end)
				}
				i.outstanding--
				qs.outstanding--
				qs.completed++
				i.sampleQueueDepth(qs)
				if qs.stalled && qs.ready()+qs.outstanding < qs.depth {
					// The depth bound has slack again: resume the
					// tenant's pull chain.
					qs.stalled = false
					i.pullQueue(cmd.Queue)
				}
				i.window.Release()
				i.maybeDrained()
			})
		})
	}
	if cmd.Req.Op == trace.OpRead && cmd.Req.Bytes > 0 {
		i.tx.Acquire(i.cfg.wireTime(cmd.Req.Bytes), func(_, end sim.Time) {
			cmd.Span.Advance(telemetry.StageWire, end)
			i.k.At(end, finish)
		})
		return
	}
	finish()
}

func (i *Interface) maybeDrained() {
	if i.outstanding != 0 || i.onDrained == nil {
		return
	}
	for _, qs := range i.qs {
		if !qs.exhausted || qs.ready() > 0 {
			return
		}
	}
	done := i.onDrained
	i.onDrained = nil
	i.k.Schedule(0, done)
}

// ThroughputMBps reports completed payload bytes over the active interval
// of the measured window (the whole run when no phase flags a window).
func (i *Interface) ThroughputMBps() float64 {
	dur := i.mLastComplete - i.mFirstSubmit
	if dur <= 0 {
		return 0
	}
	return float64(i.mBytes) / dur.Seconds() / 1e6
}

// resetDriveWindow restarts the drive-level throughput log and anchors
// (the single-stream half of a measured-window reset; resetQueueMeasurement
// restarts the queue's own figures). The raw Stats counters and the
// saturation detector keep covering the whole run.
func (i *Interface) resetDriveWindow() {
	i.complTimes = i.complTimes[:0]
	i.complBytes = i.complBytes[:0]
	i.mFirstSubmit, i.mLastComplete = 0, 0
	i.mBytes = 0
	i.mHasSubmit = false
}

// StageBreakdown summarises the per-stage latency attribution of the
// measured window's commands, merged across the submission queues.
func (i *Interface) StageBreakdown() telemetry.Breakdown {
	var r telemetry.Recorder
	for _, qs := range i.qs {
		r.Merge(&qs.stageRec)
	}
	return r.Breakdown()
}

// Saturation reports the open-loop saturation verdict: whether the arrival
// backlog grew without bound, and the fitted growth rate (seconds of lag
// per second of simulated time; 0 for closed-loop runs).
func (i *Interface) Saturation() (saturated bool, growth float64) {
	return i.backlog.Saturated(), i.backlog.Growth()
}

// WindowWait returns the total time commands spent waiting for a command
// window slot (whole run) — a cross-check for the queued-stage attribution.
func (i *Interface) WindowWait() sim.Time { return i.window.WaitTime }

// Latency returns the per-op-class latency collector (queued-to-completion
// command latency, read vs write vs all) of the measured window, merged
// across the submission queues.
func (i *Interface) Latency() *workload.Collector {
	c := new(workload.Collector)
	for _, qs := range i.qs {
		c.Merge(&qs.lat)
	}
	return c
}

// LatencyPercentiles returns the mean and the given percentiles (0-100) of
// command latency across all op classes, from the fixed-memory histogram.
func (i *Interface) LatencyPercentiles(ps ...float64) (mean sim.Time, out []sim.Time) {
	out = make([]sim.Time, len(ps))
	h := i.Latency().AllHistogram()
	if h.Count() == 0 {
		return 0, out
	}
	for j, p := range ps {
		out[j] = h.Quantile(p / 100)
	}
	return h.Mean(), out
}

// TailThroughputMBps measures throughput over the final (1-skip) fraction of
// completions, excluding the ramp-up during which an empty write cache
// absorbs traffic at wire speed. This is the steady-state figure the paper's
// SSD columns report.
func (i *Interface) TailThroughputMBps(skip float64) float64 {
	n := len(i.complTimes)
	if n < 2 {
		return i.ThroughputMBps()
	}
	if skip < 0 {
		skip = 0
	}
	if skip > 0.9 {
		skip = 0.9
	}
	k := int(float64(n) * skip)
	if k >= n-1 {
		k = n - 2
	}
	var bytes int64
	for _, b := range i.complBytes[k+1:] {
		bytes += b
	}
	dur := i.complTimes[n-1] - i.complTimes[k]
	if dur <= 0 {
		return i.ThroughputMBps()
	}
	return float64(bytes) / dur.Seconds() / 1e6
}
