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
// Commands travel as records, not closure chains. Each wire direction is a
// serial link: its server grants in Acquire order and its end events fire in
// grant order, so one FIFO of *Command and one pre-bound end step carry
// every transfer, and the command itself records whether the transfer is
// its data or its capsule.
// Each pull chain keeps its one pending submission-queue entry in place (on
// the Interface for a single stream, on the queue's state otherwise) behind
// steps bound once, so the player schedules no fresh closure per command.
//
// Commands recycle. The player owns each one from submission to the
// completion capsule; the last owner's Release returns it to a capped free
// list. A handler must not keep a *Command past Complete without a Hold.
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

// Parse builds a Config from a name: "sata2" (or its aliases "sata" and "")
// or the canonical "pcie-g<G>x<L>". Any other spelling — trailing text,
// padding, leading zeros or signs — is rejected, so a typo cannot silently
// select another design point.
func Parse(name string) (Config, error) {
	if name == "sata2" || name == "sata" || name == "" {
		return SATA2(), nil
	}
	var gen, lanes int
	if _, err := fmt.Sscanf(name, "pcie-g%dx%d", &gen, &lanes); err == nil &&
		name == fmt.Sprintf("pcie-g%dx%d", gen, lanes) {
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

// Command is one in-flight host command. Commands are recycled: the
// interface owns one from submission until its completion capsule is sent,
// and a handler that keeps a *Command past Complete must Hold it first and
// Release it when done.
//
// A deep NVMe window can hold tens of thousands of commands at once, so the
// fields are ordered to pack: 176 bytes, one size class.
type Command struct {
	ID         int64
	Queue      int32 // submission-queue (tenant) index; 0 for a single stream
	Phase      int32 // workload phase the command was pulled in (0 for a plain spec's one-phase chain)
	Req        trace.Request
	Span       telemetry.Span // per-stage latency timeline (watermark attribution)
	QueuedAt   sim.Time       // released by the stream (its arrival time, or later)
	SubmitAt   sim.Time       // command capsule fully received
	DataAt     sim.Time       // write data fully received (== SubmitAt for reads)
	CompleteAt sim.Time       // completion capsule sent

	// winGen is the measurement-window generation the command was issued
	// in: a recorded command from an earlier window (still in flight when a
	// reset opened a new one) must not leak into the new window's stats.
	winGen uint32

	// holds counts the command's owners: the player from submit to retire
	// plus one per Hold. The last Release recycles the command.
	holds int32

	Record bool // pulled inside the measured window

	// wireData marks the command's current link transfer as its data
	// (write data on rx, read data on tx) rather than its capsule.
	wireData bool
}

// link is one direction of the host wire: a serial server and the commands
// it carries. The server grants in Acquire order, and each grant's end
// event fires no earlier than the previous grant's, so the commands finish
// in the order they were sent and one FIFO holds them all.
type link struct {
	srv     *sim.Server
	sending sim.FIFO[*Command] // sent, end event not yet fired
	endFn   func()
}

// newLink builds a link on a fresh server named name; end lands each
// transfer, oldest first.
func newLink(k *sim.Kernel, name string, end func()) *link {
	return &link{srv: sim.NewServer(k, nil, name), endFn: end}
}

// send queues cmd for a transfer occupying the link for dur.
//
//ssdx:hotpath
func (l *link) send(cmd *Command, dur sim.Time) {
	l.sending.Push(cmd)
	l.srv.Acquire(dur, l.endFn)
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

	rx     *link          // host -> device (commands, write data)
	tx     *link          // device -> host (completions, read data)
	window *sim.TokenGate // command queue depth

	// The single-stream pull steps and the multi-queue dispatcher's grant,
	// bound once in New.
	pullArriveFn, pullGrantFn, dispatchGrantFn func()
	// pulled is the single stream's one pending entry: pulled from the
	// stream, waiting for its arrival time or for a window slot.
	pulled sqEntry

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

	// cmds recycles commands whose last owner released them; live counts
	// the commands taken and not yet released.
	cmds sim.FreeList[Command]
	live int

	// tail is the completion log behind the steady-state (tail) throughput
	// (recorded commands only).
	tail tailLog

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
	i := &Interface{cfg: cfg, k: k, window: sim.NewTokenGate(k, cfg.QueueDepth)}
	i.rx = newLink(k, cfg.Name+"-rx", i.rxEnd)
	i.tx = newLink(k, cfg.Name+"-tx", i.txEnd)
	i.pullArriveFn, i.pullGrantFn, i.dispatchGrantFn = i.pullArrive, i.pullGrant, i.dispatchGrant
	i.cmds.Max = sim.PoolCap
	return i, nil
}

// SetTracer attaches an event tracer: the rx and tx links register as host
// resources whose service windows are recorded, and commands carry flow
// ids. Call once, before Run/RunMulti.
func (i *Interface) SetTracer(tr *evtrace.Tracer) {
	if tr == nil {
		return
	}
	i.tr = tr
	i.rxRes = tr.Register(evtrace.KindHost, i.rx.srv.Name())
	i.txRes = tr.Register(evtrace.KindHost, i.tx.srv.Name())
	rxRes, txRes := i.rxRes, i.txRes
	i.rx.srv.OnServe = func(start, end sim.Time) { tr.Interval(rxRes, evtrace.OpBusy, start, end) }
	i.tx.srv.OnServe = func(start, end sim.Time) { tr.Interval(txRes, evtrace.OpBusy, start, end) }
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

// Outstanding reports commands inside the window.
func (i *Interface) Outstanding() int { return i.outstanding }

// Hold takes one more ownership of cmd, so that it outlives its completion:
// a handler that keeps a *Command past Complete holds it and releases it
// when done.
//
//ssdx:hotpath
func (i *Interface) Hold(cmd *Command) { cmd.holds++ }

// Release drops one ownership of cmd; the last one recycles the command.
// Releasing a command more often than it was held (the player's own hold
// included) panics.
//
//ssdx:hotpath
func (i *Interface) Release(cmd *Command) {
	cmd.holds--
	if cmd.holds > 0 {
		return
	}
	if cmd.holds < 0 {
		releasePanic(cmd)
	}
	i.live--
	i.cmds.Give(cmd)
}

// releasePanic reports an over-released command off the hot path.
func releasePanic(cmd *Command) {
	panic(fmt.Sprintf("hostif: command %d released more often than held", cmd.ID))
}

// LiveCommands reports how many commands are owned by the player or a
// holder: 0 once a run has drained and every holder has released.
func (i *Interface) LiveCommands() int { return i.live }

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
		qs := &queueState{i: i, q: q, depth: depth, st: src.Stream(q), recording: true, res: -1}
		qs.pullFn, qs.admitFn = qs.pull, qs.admit
		i.qs[q] = qs
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

// submit takes a granted command-window slot for queue q's entry e and
// sends the command capsule over rx; rxEnd continues with the write data,
// then hands the command to the platform.
//
//ssdx:hotpath
func (i *Interface) submit(q int, e sqEntry) {
	qs := i.qs[q]
	qs.outstanding++
	i.outstanding++
	if i.outstanding > i.Stats.QueuePeak {
		i.Stats.QueuePeak = i.outstanding
	}
	cmd := i.cmds.Take()
	if cmd == nil {
		cmd = new(Command)
	}
	// Reset a recycled command field by field: a struct literal would
	// build the whole command and copy it in.
	cmd.ID, cmd.Queue, cmd.Phase, cmd.Req = i.nextID, int32(q), int32(e.phase), e.req
	cmd.QueuedAt, cmd.SubmitAt, cmd.DataAt, cmd.CompleteAt = e.queued, 0, 0, 0
	cmd.winGen, cmd.holds, cmd.Record, cmd.wireData = e.winGen, 1, e.record, false
	i.live++
	cmd.Span.Start(e.queued)
	// The window slot is granted: everything since the queue time was
	// host-side queueing (window admission plus arrival backlog).
	cmd.Span.Advance(telemetry.StageQueued, i.k.Now())
	if i.tr != nil {
		// ID 0 is a valid command; flow 0 means "untraced", so shift by one.
		cmd.Span.Flow = cmd.ID + 1
		i.tr.CommandStart(cmd.Span.Flow, cmdOp(e.req.Op), e.queued)
		i.tr.FlowStep(i.rxRes, cmd.Span.Flow, i.k.Now())
	}
	i.nextID++
	i.rx.send(cmd, i.cfg.wireTime(i.cfg.CmdBytes))
}

// rxEnd lands the oldest granted rx transfer. A capsule opens the command's
// measured submission and, for a write with data, sends the data next;
// the command goes to the platform once nothing is left to receive.
//
//ssdx:hotpath
func (i *Interface) rxEnd() {
	cmd := i.rx.sending.Pop()
	end := i.k.Now()
	if cmd.wireData {
		cmd.DataAt = end
		cmd.Span.Advance(telemetry.StageWire, end)
		i.handler(cmd)
		return
	}
	cmd.SubmitAt = end
	cmd.Span.Advance(telemetry.StageWire, end)
	if i.Stats.FirstSubmit == 0 && i.Stats.Completed == 0 {
		i.Stats.FirstSubmit = end
	}
	if cmd.Record && i.cmdInWindow(cmd) {
		if !i.mHasSubmit {
			i.mFirstSubmit, i.mHasSubmit = end, true
		}
		if qs := i.qs[cmd.Queue]; !qs.hasSubmit {
			qs.firstSubmit, qs.hasSubmit = end, true
		}
	}
	if cmd.Req.Op == trace.OpWrite && cmd.Req.Bytes > 0 {
		cmd.wireData = true
		i.rx.send(cmd, i.cfg.wireTime(cmd.Req.Bytes))
		return
	}
	cmd.DataAt = end
	i.handler(cmd)
}

// Complete is called by the platform when the device has finished a command.
// The interface models the device-to-host wire traffic (read data plus the
// completion capsule), releases the command window slot and accounts stats.
//
//ssdx:hotpath
func (i *Interface) Complete(cmd *Command) {
	cmd.wireData = cmd.Req.Op == trace.OpRead && cmd.Req.Bytes > 0
	if cmd.wireData {
		i.tx.send(cmd, i.cfg.wireTime(cmd.Req.Bytes))
		return
	}
	i.tx.send(cmd, i.cfg.wireTime(i.cfg.CplBytes))
}

// txEnd lands the oldest granted tx transfer: read data is charged to the
// wire stage and followed by the completion capsule, and a sent capsule
// completes the command.
//
//ssdx:hotpath
func (i *Interface) txEnd() {
	cmd := i.tx.sending.Pop()
	if cmd.wireData {
		cmd.Span.Advance(telemetry.StageWire, i.k.Now())
		cmd.wireData = false
		i.tx.send(cmd, i.cfg.wireTime(i.cfg.CplBytes))
		return
	}
	i.retire(cmd, i.k.Now())
}

// retire accounts a command whose completion capsule reached the host at
// end, drops the player's hold on it, releases its window slot and resumes
// a stalled pull chain.
func (i *Interface) retire(cmd *Command, end sim.Time) {
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
		i.tail.add(end, cmd.Req.Bytes)
		i.mLastComplete = end
		qs.lastComplete = end
		if cmd.Req.Op == trace.OpWrite || cmd.Req.Op == trace.OpRead {
			i.mBytes += uint64(cmd.Req.Bytes)
			qs.bytes += uint64(cmd.Req.Bytes)
		}
		// Distributions live per queue; the drive-level view merges them
		// on demand, so a tenant's window reset never smears another's.
		qs.lat.Record(cmd.Req.Op, end-cmd.QueuedAt)
		qs.stageRec.Observe(&cmd.Span)
	}
	// Phase profiles cover every command of a phased stream — unrecorded
	// (precondition) phases and stale-window stragglers too. Phase-less
	// streams skip the accounting: their lone profile would only be
	// discarded.
	if qs.st.Phased() {
		qs.phaseWins = observePhase(qs.phaseWins, cmd, end)
	}
	i.Release(cmd)
	i.outstanding--
	qs.outstanding--
	qs.completed++
	i.sampleQueueDepth(qs)
	if qs.stalled && qs.ready()+qs.outstanding < qs.depth {
		// The depth bound has slack again: resume the tenant's pull
		// chain.
		qs.stalled = false
		qs.pull()
	}
	i.window.Release()
	i.maybeDrained()
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
	i.tail = tailLog{}
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

// TailThroughputMBps measures throughput over the second half of the
// measured window's completions, excluding the ramp-up during which an
// empty write cache absorbs traffic at wire speed. This is the steady-state
// figure the paper's SSD columns report. With fewer than two completions,
// or none of them apart in time, it falls back to ThroughputMBps.
func (i *Interface) TailThroughputMBps() float64 {
	if mbps, ok := i.tail.mbps(); ok {
		return mbps
	}
	return i.ThroughputMBps()
}
