// Package ctrl models the channel/way controller (paper §III-B3): the block
// that formats CPU-issued commands into the ONFI protocol and moves page
// data between the DRAM buffers and the NAND array. Following the Evatronix
// controller microarchitecture the paper references [14], a channel
// controller comprises an AMBA AHB slave program port, a push-pull DMA
// (PP-DMA), an SRAM cache buffer, an ONFI 2.0 port and a command translator.
// The channel/way interconnection supports the two gang schemes of Agrawal
// et al. [15]: shared-bus (one data bus serialises all transfers on the
// channel) and shared-control (per-way data paths, shared command/address
// issue).
//
// A Channel takes one call per flash op kind: Program (a multi-plane page
// batch with optional prep stage, per-page spans and GC share), Read (one
// page, with an optional span and a GC flag) and Erase. Each call queues a
// die command on the die's sim.FIFO, and the die issues its queue strictly
// in order.
package ctrl

import (
	"errors"
	"fmt"

	"repro/internal/amba"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
	evtrace "repro/internal/telemetry/trace"
)

// GangMode selects the channel/way interconnection scheme.
type GangMode uint8

// Gang modes (paper §III-B3 / ref [15]).
const (
	SharedBus GangMode = iota
	SharedControl
)

// String names the gang mode.
func (g GangMode) String() string {
	if g == SharedControl {
		return "shared-control"
	}
	return "shared-bus"
}

// ParseGangMode decodes a gang-mode name.
func ParseGangMode(s string) (GangMode, error) {
	switch s {
	case "shared-bus", "bus", "":
		return SharedBus, nil
	case "shared-control", "control":
		return SharedControl, nil
	}
	return SharedBus, fmt.Errorf("ctrl: unknown gang mode %q", s)
}

// Config describes one channel controller.
type Config struct {
	Ways       int
	DiesPerWay int
	Gang       GangMode
	// CacheSlots bounds in-flight page operations per channel (the SRAM
	// cache buffer capacity in pages). 0 selects 6 slots per die.
	CacheSlots int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ways < 1 || c.DiesPerWay < 1 {
		return fmt.Errorf("ctrl: invalid geometry %+v", c)
	}
	return nil
}

// Dies returns dies per channel.
func (c Config) Dies() int { return c.Ways * c.DiesPerWay }

// Stats aggregates channel activity.
type Stats struct {
	PageWrites    uint64
	PageReads     uint64
	Erases        uint64
	BytesToNAND   uint64
	BytesFromNAND uint64
}

// Channel is one channel controller instance with its NAND dies.
type Channel struct {
	ID  int
	cfg Config
	k   *sim.Kernel

	dies    []*nand.Die
	dieQ    []sim.FIFO[*dieOp] // per-die command queue (the command translator)
	dieBusy []bool             // die interface occupied (RB# low or data cycles active)

	// opPool recycles dieOps (with their owned address/span slices and
	// bound callbacks), keeping the steady-state program path
	// allocation-free. It keeps at most sim.PoolCap ops, so a burst of
	// queued reads or GC traffic does not stay alive to the end of the run.
	opPool sim.FreeList[dieOp]

	// ONFI transport. Shared-bus: one server carries commands and data.
	// Shared-control: cmdBus carries command/address cycles, wayBus[w]
	// carries the data cycles of way w.
	cmdBus *sim.Server
	wayBus []*sim.Server

	cache *sim.TokenGate // SRAM cache buffer slots

	ppDMA *amba.Master // push-pull DMA's AHB master port
	buf   *dram.Buffer // DRAM buffer serving this channel

	tim *nand.Timing

	Stats Stats

	// Event tracing (nil when disabled — every recording site checks tr, so
	// the uninstrumented hot path pays one branch and zero allocations).
	// dieRes/wayRes hold the registered resource ids; the controller records
	// die intervals itself because only it knows the op kind and GC share.
	tr     *evtrace.Tracer
	dieRes []int32
	busRes int32
	wayRes []int32

	// spanSink, when set, receives every stage-watermark advance instead of
	// the controller mutating spans directly. The parallel kernel installs
	// one per channel: spans belong to the hub clock domain, so shard-side
	// advances become timestamped cross-domain messages applied there in
	// deterministic merge order. Nil (the default) keeps the direct,
	// allocation-free serial path.
	spanSink func(sp *telemetry.Span, st telemetry.Stage, at sim.Time)
}

// SetSpanSink redirects stage attribution to sink (nil restores direct span
// mutation). Call before the run starts.
func (ch *Channel) SetSpanSink(sink func(sp *telemetry.Span, st telemetry.Stage, at sim.Time)) {
	ch.spanSink = sink
}

// adv moves one span's stage watermark, through the sink when installed.
//
//ssdx:hotpath
func (ch *Channel) adv(sp *telemetry.Span, st telemetry.Stage, at sim.Time) {
	if sp == nil {
		return
	}
	if ch.spanSink != nil {
		ch.spanSink(sp, st, at)
		return
	}
	sp.Advance(st, at)
}

// New builds a channel controller with its dies attached. The channel and
// its dies share geo and tim (see nand.NewDie).
func New(k *sim.Kernel, id int, cfg Config, geo *nand.Geometry, tim *nand.Timing,
	ppDMA *amba.Master, buf *dram.Buffer, rng *sim.RNG) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ppDMA == nil || buf == nil {
		return nil, errors.New("ctrl: nil DMA port or DRAM buffer")
	}
	ch := &Channel{ID: id, cfg: cfg, k: k, ppDMA: ppDMA, buf: buf, tim: tim}
	for d := 0; d < cfg.Dies(); d++ {
		die, err := nand.NewDie(k, id*1000+d, geo, tim, rng.Fork(uint64(d+1)))
		if err != nil {
			return nil, err
		}
		ch.dies = append(ch.dies, die)
	}
	ch.dieQ = make([]sim.FIFO[*dieOp], cfg.Dies())
	ch.dieBusy = make([]bool, cfg.Dies())
	ch.cmdBus = sim.NewServer(k, nil, fmt.Sprintf("ch%d-onfi", id))
	if cfg.Gang == SharedControl {
		for w := 0; w < cfg.Ways; w++ {
			ch.wayBus = append(ch.wayBus, sim.NewServer(k, nil, fmt.Sprintf("ch%d-way%d", id, w)))
		}
	}
	slots := cfg.CacheSlots
	if slots <= 0 {
		slots = 6 * cfg.Dies()
	}
	ch.cache = sim.NewTokenGate(k, slots)
	ch.opPool.Max = sim.PoolCap
	return ch, nil
}

// SetTracer attaches an event tracer: it registers the channel's dies and
// ONFI buses as resources and hooks the bus servers' service windows. Call
// once, before the run starts.
func (ch *Channel) SetTracer(tr *evtrace.Tracer) {
	if tr == nil {
		return
	}
	ch.tr = tr
	ch.dieRes = make([]int32, len(ch.dies))
	for d := range ch.dies {
		ch.dieRes[d] = tr.Register(evtrace.KindDie, fmt.Sprintf("ch%d-die%d", ch.ID, d))
	}
	ch.busRes = tr.Register(evtrace.KindBus, ch.cmdBus.Name())
	busRes := ch.busRes
	ch.cmdBus.OnServe = func(start, end sim.Time) {
		tr.Interval(busRes, evtrace.OpXfer, start, end)
	}
	for _, wb := range ch.wayBus {
		res := tr.Register(evtrace.KindBus, wb.Name())
		ch.wayRes = append(ch.wayRes, res)
		wb.OnServe = func(start, end sim.Time) {
			tr.Interval(res, evtrace.OpXfer, start, end)
		}
	}
}

// Die returns die d (for wear setup and assertions).
func (ch *Channel) Die(d int) *nand.Die { return ch.dies[d] }

// SetWear forces all dies to normalised wear w (Fig. 5 setup).
func (ch *Channel) SetWear(w float64) {
	for _, d := range ch.dies {
		d.SetWear(w)
	}
}

// wayOf maps a die index to its way.
func (ch *Channel) wayOf(die int) int { return die / ch.cfg.DiesPerWay }

// dataBus returns the server carrying data cycles for a die.
func (ch *Channel) dataBus(die int) *sim.Server {
	if ch.cfg.Gang == SharedControl {
		return ch.wayBus[ch.wayOf(die)]
	}
	return ch.cmdBus
}

// checkDie validates a die index.
func (ch *Channel) checkDie(die int) error {
	if die < 0 || die >= len(ch.dies) {
		return fmt.Errorf("ctrl: die %d out of range (channel has %d)", die, len(ch.dies))
	}
	return nil
}

// dieOpKind labels per-die queued operations.
type dieOpKind uint8

const (
	opWrite dieOpKind = iota
	opRead
	opErase
)

// opStep names the step a die op waits on next. Every op walks the steps
// in this order, skipping those of other kinds: a write takes its SRAM
// slot and prefetches its data (DRAM read, then AHB transfer into the
// cache), a read takes its slot, and then each waits in the die queue for
// its ONFI window (an erase starts there). After the window's end and the
// array operation, a read still has its data-out window, the PP-DMA push
// over the AHB and the landing in DRAM. The step says what the op's
// callback does when it arrives; a callback that arrives at a step with
// none pending panics.
type opStep uint8

const (
	stepSlot     opStep = iota // SRAM cache slot granted (writes, reads)
	stepFetchBuf               // prefetch DRAM read done (writes)
	stepFetchDMA               // prefetch AHB transfer done (writes)
	stepGrant                  // issuable, waiting in the die queue: no callback pending
	stepBus                    // ONFI window over
	stepArray                  // array operation done
	stepOutBus                 // data-out window over (reads)
	stepPush                   // PP-DMA push over the AHB done (reads)
	stepLand                   // page landed in DRAM (reads)
)

// dieOp is one queued die command. Writes prefetch their data into the SRAM
// cache while queued; the die issues commands strictly in queue order,
// which is how the command translator preserves host/FTL ordering. addrs
// and spans are owned by the op (copied from the caller at submit), so ops
// recycle through the channel pool without aliasing caller storage; the
// two callbacks are bound once per op object and survive recycling.
type dieOp struct {
	ch *Channel

	kind    dieOpKind
	step    opStep
	prepped bool // write prep stage (e.g. ECC encode) complete
	// gcRead marks a relocation source read; gcPages counts the relocation
	// pages riding a program batch (both get their own op kinds in the
	// utilization timeline).
	gcRead  bool
	gcPages int
	die     int

	addrs []nand.Addr
	bytes int64 // total payload bytes

	// Stage attribution targets: span for reads, spans for the batched
	// program path (one per page; entries may be nil for spanless pages such
	// as GC relocations riding a user batch). Both may be empty.
	span  *telemetry.Span
	spans []*telemetry.Span

	done func()

	// The op's callbacks, bound once per op object so the steady-state
	// program, read and erase paths never allocate: prepFn ends a write's
	// prep stage, the one step that runs alongside the others; stepFn
	// (onStep) serves every other step, dispatching on step.
	prepFn, stepFn func()
}

// advance moves every attached span's watermark (nil entries skipped).
//
//ssdx:hotpath
func (op *dieOp) advance(st telemetry.Stage, now sim.Time) {
	op.ch.adv(op.span, st, now)
	for _, sp := range op.spans {
		op.ch.adv(sp, st, now)
	}
}

// prepDone ends a write's prep stage, the batch's encode: charge the
// interval to the ECC stage for every page riding the batch.
//
//ssdx:hotpath
func (op *dieOp) prepDone() {
	op.advance(telemetry.StageECC, op.ch.k.Now())
	op.prepped = true
	op.ch.pump(op.die)
}

// onStep runs the op's next step when the one it waits on ends: a slot
// grant, the prefetch's DRAM read or AHB transfer, an ONFI window, an
// array operation, or a read's push into DRAM and landing.
//
//ssdx:hotpath
func (op *dieOp) onStep() {
	ch := op.ch
	switch op.step {
	case stepSlot:
		if op.kind == opWrite {
			// Prefetch: DRAM read then AHB transfer into the SRAM cache.
			op.step = stepFetchBuf
			ch.buf.Access(false, int64(ch.ID)*op.bytes, op.bytes, op.stepFn)
			return
		}
		op.step = stepGrant
		ch.pump(op.die)
	case stepFetchBuf:
		op.step = stepFetchDMA
		ch.transfer(op)
	case stepFetchDMA:
		op.step = stepGrant
		ch.pump(op.die)
	case stepBus:
		op.step = stepArray
		switch op.kind {
		case opWrite:
			ch.issueProgram(op)
		case opRead:
			ch.sense(op)
		default:
			ch.erase(op)
		}
	case stepArray:
		switch op.kind {
		case opWrite:
			ch.programmed(op)
		case opRead:
			ch.sensed(op)
		default:
			ch.erased(op)
		}
	case stepOutBus:
		ch.readOut(op)
	case stepPush:
		op.step = stepLand
		ch.buf.Access(true, int64(ch.ID)*op.bytes, op.bytes, op.stepFn)
	case stepLand:
		ch.readLanded(op)
	default:
		op.outOfOrder()
	}
}

// outOfOrder panics on a callback that arrives at the wrong step.
func (op *dieOp) outOfOrder() {
	panic(fmt.Sprintf("ctrl: ch%d die%d: kind-%d op callback at step %d",
		op.ch.ID, op.die, op.kind, op.step))
}

// transfer moves an op's payload over the PP-DMA's AHB master port: a
// write's prefetch into the SRAM cache or a read's push into DRAM.
//
//ssdx:hotpath
func (ch *Channel) transfer(op *dieOp) {
	if err := ch.ppDMA.Transfer(op.bytes, op.stepFn); err != nil {
		dmaPanic(err)
	}
}

// dmaPanic reports a failed PP-DMA transfer off the hot path.
func dmaPanic(err error) {
	panic(fmt.Sprintf("ctrl: DMA failed: %v", err))
}

// issueProgram issues a write op's program at the end of its ONFI data-in
// window. Everything up to the bus grant was die-queue wait (channel
// stage); the granted window itself, which the unclocked bus opened
// programBusTime before now, is ONFI occupancy (bus stage).
func (ch *Channel) issueProgram(op *dieOp) {
	now := ch.k.Now()
	op.advance(telemetry.StageChan, now-ch.programBusTime(op))
	op.advance(telemetry.StageBus, now)
	dur, err := ch.dies[op.die].MultiPlaneProgram(op.addrs, op.stepFn)
	if err != nil {
		panic(fmt.Sprintf("ctrl: program failed on ch%d die%d %+v: %v",
			ch.ID, op.die, op.addrs, err))
	}
	if ch.tr != nil {
		ch.recordProgram(op, dur)
	}
}

// programmed retires a write op at the end of its array time (tPROG),
// which ends the page's flash interval.
//
//ssdx:hotpath
func (ch *Channel) programmed(op *dieOp) {
	op.advance(telemetry.StageNAND, ch.k.Now())
	ch.Stats.PageWrites += uint64(len(op.addrs))
	ch.Stats.BytesToNAND += uint64(op.bytes)
	done := op.done
	ch.cache.Release()
	ch.release(op.die)
	ch.putOp(op)
	if done != nil {
		done()
	}
}

// recordProgram logs a program batch's array interval onto the die's trace
// resource, splitting a mixed user/GC batch proportionally so relocation
// work shows up under its own op kind. Flow steps connect the interval to
// every traced command whose page rides the batch.
//
//ssdx:hotpath
func (ch *Channel) recordProgram(op *dieOp, dur sim.Time) {
	now := ch.k.Now()
	res := ch.dieRes[op.die]
	total := len(op.addrs)
	gc := op.gcPages
	if gc > total {
		gc = total
	}
	userEnd := now + dur*sim.Time(total-gc)/sim.Time(total)
	if gc < total {
		ch.tr.Interval(res, evtrace.OpProgram, now, userEnd)
	}
	if gc > 0 {
		ch.tr.Interval(res, evtrace.OpGCProgram, userEnd, now+dur)
	}
	for _, sp := range op.spans {
		if sp != nil && sp.Flow != 0 {
			ch.tr.FlowStep(res, sp.Flow, now)
		}
	}
}

// getOp takes a pooled op (or builds one with its callbacks bound).
func (ch *Channel) getOp() *dieOp {
	if op := ch.opPool.Take(); op != nil {
		return op
	}
	op := &dieOp{ch: ch}
	op.prepFn, op.stepFn = op.prepDone, op.onStep
	return op
}

// putOp clears an op's per-command state (keeping its owned slices and bound
// callbacks) and returns it to the pool, which keeps at most sim.PoolCap
// ops.
//
//ssdx:hotpath
func (ch *Channel) putOp(op *dieOp) {
	op.addrs = op.addrs[:0]
	op.spans = op.spans[:0]
	op.span = nil
	op.done = nil
	op.bytes = 0
	op.gcPages, op.gcRead = 0, false
	ch.opPool.Give(op)
}

// enqueue appends an op in command order and pumps the die.
//
//ssdx:hotpath
func (ch *Channel) enqueue(die int, op *dieOp) {
	ch.dieQ[die].Push(op)
	if ch.tr != nil {
		ch.tr.Depth(ch.dieRes[die], ch.dieQ[die].Len(), ch.k.Now())
	}
	ch.pump(die)
}

// pump starts the head-of-queue operation of a die when the die interface is
// free and the op is issuable: a read holds its SRAM slot, a write's data
// prefetch has landed in the SRAM cache and its prep stage is done.
//
//ssdx:hotpath
func (ch *Channel) pump(die int) {
	if ch.dieBusy[die] || ch.dieQ[die].Len() == 0 {
		return
	}
	op := ch.dieQ[die].Front()
	if op.step != stepGrant || !op.prepped {
		return // the slot grant, prefetch or prep completion will re-pump
	}
	ch.dieQ[die].Pop()
	if ch.tr != nil {
		ch.tr.Depth(ch.dieRes[die], ch.dieQ[die].Len(), ch.k.Now())
	}
	ch.dieBusy[die] = true
	op.step = stepBus
	if op.kind == opWrite {
		// Command/address plus data-in cycles occupy the (gang-dependent)
		// bus; the window's end step issues the program.
		ch.dataBus(die).Acquire(ch.programBusTime(op), op.stepFn)
		return
	}
	// Reads and erases open with command/address cycles, which in
	// shared-bus mode ride the same bus as data; the window's end step
	// continues with sense or erase.
	ch.cmdBus.Acquire(ch.tim.CommandOverhead(), op.stepFn)
}

// release frees the die interface and pumps the next queued op.
//
//ssdx:hotpath
func (ch *Channel) release(die int) {
	ch.dieBusy[die] = false
	ch.pump(die)
}

// programBusTime is a write op's ONFI window: command/address cycles per
// page plus the data-in transfer.
//
//ssdx:hotpath
func (ch *Channel) programBusTime(op *dieOp) sim.Time {
	return sim.Time(len(op.addrs))*ch.tim.CommandOverhead() + ch.tim.DataTransferTime(int(op.bytes))
}

// sense starts a read op's array sense once its command/address cycles
// are done.
func (ch *Channel) sense(op *dieOp) {
	// Die-queue wait plus command/address cycles: channel stage.
	ch.adv(op.span, telemetry.StageChan, ch.k.Now())
	dur, err := ch.dies[op.die].Read(op.addrs[0], op.stepFn)
	if err != nil {
		panic(fmt.Sprintf("ctrl: read failed on ch%d die%d %+v: %v",
			ch.ID, op.die, op.addrs[0], err))
	}
	if ch.tr != nil {
		now := ch.k.Now()
		kind := evtrace.OpRead
		if op.gcRead {
			kind = evtrace.OpGCRead
		}
		ch.tr.Interval(ch.dieRes[op.die], kind, now, now+dur)
		if op.span != nil && op.span.Flow != 0 {
			ch.tr.FlowStep(ch.dieRes[op.die], op.span.Flow, now)
		}
	}
}

// sensed moves a read op's page out once the array sense (tR, the NAND
// stage) is done: data-out cycles on the data bus. The SRAM slot was
// reserved at enqueue, keeping slot-grant order equal to command order — a
// FIFO property that rules out deadlock.
//
//ssdx:hotpath
func (ch *Channel) sensed(op *dieOp) {
	ch.adv(op.span, telemetry.StageNAND, ch.k.Now())
	op.step = stepOutBus
	ch.dataBus(op.die).Acquire(ch.tim.DataTransferTime(int(op.bytes)), op.stepFn)
}

// readOut frees the die at the end of a read's data-out window (the bus
// stage) and has the PP-DMA push the page to DRAM over the AHB.
//
//ssdx:hotpath
func (ch *Channel) readOut(op *dieOp) {
	ch.adv(op.span, telemetry.StageBus, ch.k.Now())
	ch.release(op.die)
	op.step = stepPush
	ch.transfer(op)
}

// readLanded retires a read op once its page has landed in DRAM (AHB DMA
// plus DDR landing: the DRAM stage).
//
//ssdx:hotpath
func (ch *Channel) readLanded(op *dieOp) {
	ch.adv(op.span, telemetry.StageDRAM, ch.k.Now())
	ch.Stats.PageReads++
	ch.Stats.BytesFromNAND += uint64(op.bytes)
	done := op.done
	ch.cache.Release()
	ch.putOp(op)
	if done != nil {
		done()
	}
}

// erase starts an erase op's block erase once its command/address cycles
// are done.
func (ch *Channel) erase(op *dieOp) {
	a := op.addrs[0]
	dur, err := ch.dies[op.die].EraseBlock(a.Plane, a.Block, op.stepFn)
	if err != nil {
		panic(fmt.Sprintf("ctrl: erase failed on ch%d die%d p%d b%d: %v",
			ch.ID, op.die, a.Plane, a.Block, err))
	}
	if ch.tr != nil {
		now := ch.k.Now()
		ch.tr.Interval(ch.dieRes[op.die], evtrace.OpErase, now, now+dur)
	}
}

// erased retires an erase op.
//
//ssdx:hotpath
func (ch *Channel) erased(op *dieOp) {
	ch.Stats.Erases++
	done := op.done
	ch.release(op.die)
	ch.putOp(op)
	if done != nil {
		done()
	}
}

// Program moves a batch of pages from the DRAM buffer through the
// controller into one die and programs them as a multi-plane operation (all
// addresses must target distinct planes at the same block/page offset; a
// single address is a plain program). pageBytes is the size of each page.
// done, if non-nil, fires when the array operation completes.
//
// Data prefetch (SRAM slot, DRAM read, AHB DMA into the SRAM cache) begins
// at once and overlaps earlier operations of the same die, so the stages
// (PP-DMA fetch, ONFI data-in, array program) pipeline across dies. prep, if
// non-nil, is an extra preparation stage (for example an ECC encode on a
// shared engine) started at enqueue time, concurrent with the prefetch. The
// program itself issues in strict command order once both complete, so
// callers that need allocation order to equal program order enqueue
// synchronously and push their variable-latency stages into prep.
//
// spans carries one Span per page (nil entries, or a nil list, skip
// attribution). A batch may mix pages of several host commands; each page
// keeps its own span, so the controller splits the write interval per
// command: prep time goes to the ECC stage, die-queue wait to the channel
// stage, the granted ONFI window to the bus stage and tPROG to the NAND
// stage. gcPages counts the GC relocation pages riding the batch: the
// utilization timeline attributes their share of the program interval to
// the gc_program op kind (relocations are typically spanless, so this is
// the only place their array time becomes visible). addrs and spans are
// copied at call time; the caller may reuse their backing arrays.
//
//ssdx:hotpath
func (ch *Channel) Program(die int, addrs []nand.Addr, pageBytes int, spans []*telemetry.Span, gcPages int, prep func(ready func()), done func()) error {
	if err := ch.checkProgram(die, addrs, pageBytes, spans, gcPages); err != nil {
		return err
	}
	op := ch.getOp()
	op.gcPages = gcPages
	op.kind, op.step = opWrite, stepSlot
	op.die = die
	op.addrs = append(op.addrs[:0], addrs...)
	op.spans = append(op.spans[:0], spans...)
	op.bytes = int64(pageBytes) * int64(len(addrs))
	op.done = done
	op.prepped = prep == nil
	// Start prep before enqueueing the program: a prep stage may itself
	// enqueue operations on this die (e.g. a GC source read), and those
	// must precede the dependent program in the command queue.
	if prep != nil {
		prep(op.prepFn)
	}
	ch.enqueue(die, op)
	// Prefetch: SRAM slot, DRAM read, AHB transfer; then the op is issuable.
	ch.cache.AcquireWhenFree(op.stepFn)
	return nil
}

// checkProgram validates a multi-page program request. Split out of
// Program so the error formatting stays off the annotated hot path.
func (ch *Channel) checkProgram(die int, addrs []nand.Addr, pageBytes int, spans []*telemetry.Span, gcPages int) error {
	if err := ch.checkDie(die); err != nil {
		return err
	}
	if pageBytes <= 0 {
		return errors.New("ctrl: non-positive page size")
	}
	if len(addrs) == 0 {
		return errors.New("ctrl: empty address list")
	}
	if len(spans) != 0 && len(spans) != len(addrs) {
		return fmt.Errorf("ctrl: %d spans for %d addresses", len(spans), len(addrs))
	}
	if gcPages < 0 || gcPages > len(addrs) {
		return fmt.Errorf("ctrl: %d GC pages for %d addresses", gcPages, len(addrs))
	}
	return nil
}

// Read senses die/addr and moves the page back into the DRAM buffer. done,
// if non-nil, fires when the data lands in DRAM. sp, if non-nil, receives
// the read's stage attribution: die-queue wait and ONFI command/address
// cycles go to the channel stage, the array sense to the NAND stage,
// data-out cycles to the bus stage and the PP-DMA push into the buffer to
// the DRAM stage. gc marks a garbage-collection relocation source: timing
// is identical, but the utilization timeline attributes the array sense to
// the gc_read op kind.
func (ch *Channel) Read(die int, addr nand.Addr, pageBytes int, sp *telemetry.Span, gc bool, done func()) error {
	if err := ch.checkDie(die); err != nil {
		return err
	}
	if pageBytes <= 0 {
		return errors.New("ctrl: non-positive page size")
	}
	op := ch.getOp()
	op.gcRead = gc
	op.kind, op.step, op.prepped = opRead, stepSlot, true
	op.die = die
	op.addrs = append(op.addrs[:0], addr)
	op.bytes = int64(pageBytes)
	op.span = sp
	op.done = done
	ch.enqueue(die, op)
	ch.cache.AcquireWhenFree(op.stepFn)
	return nil
}

// Erase reclaims a block on a die. done fires at erase completion.
func (ch *Channel) Erase(die, plane, block int, done func()) error {
	if err := ch.checkDie(die); err != nil {
		return err
	}
	op := ch.getOp()
	op.kind, op.step, op.prepped = opErase, stepGrant, true
	op.die = die
	op.addrs = append(op.addrs[:0], nand.Addr{Plane: plane, Block: block})
	op.done = done
	ch.enqueue(die, op)
	return nil
}

// PageAllocator hands out physical page addresses per die in program-order,
// cycling plane fastest, then page, then block — so PlanesPerDie consecutive
// allocations form a legal multi-plane program batch (same block/page,
// distinct planes). It is the minimal allocation the platform's WAF-FTL mode
// needs: the logical mapping is abstracted; only legal ONFI program order
// matters for timing.
type PageAllocator struct {
	geo     nand.Geometry
	next    []nand.Addr // per die
	wrapped []bool      // die has cycled at least once: blocks need erasing
}

// NewPageAllocator builds an allocator for n dies of geometry geo.
func NewPageAllocator(n int, geo nand.Geometry) *PageAllocator {
	a := &PageAllocator{geo: geo}
	a.next = make([]nand.Addr, n)
	a.wrapped = make([]bool, n)
	return a
}

// Next returns the next program address for a die. needErase is true when
// the address opens a block that was programmed in a previous lap — the
// platform must erase (plane, block) before this program lands.
func (a *PageAllocator) Next(die int) (addr nand.Addr, needErase bool) {
	cur := a.next[die]
	addr = cur
	needErase = a.wrapped[die] && cur.Page == 0
	// Advance: plane, then page, then block.
	cur.Plane++
	if cur.Plane == a.geo.PlanesPerDie {
		cur.Plane = 0
		cur.Page++
		if cur.Page == a.geo.PagesPerBlock {
			cur.Page = 0
			cur.Block++
			if cur.Block == a.geo.BlocksPerPlane {
				cur.Block = 0
				a.wrapped[die] = true
			}
		}
	}
	a.next[die] = cur
	return addr, needErase
}

// Batch appends up to n consecutive addresses of one die forming a legal
// multi-plane group (it stops at plane-group boundaries) to addrs, and the
// blocks that must be erased first to erase, and returns both. Passing
// reused scratch slices keeps the allocation path allocation-free.
func (a *PageAllocator) Batch(die, n int, addrs, erase []nand.Addr) ([]nand.Addr, []nand.Addr) {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		// Only extend within a same block/page plane group.
		if i > 0 && a.next[die].Plane == 0 {
			break
		}
		addr, needErase := a.Next(die)
		if needErase {
			erase = append(erase, addr)
		}
		addrs = append(addrs, addr)
	}
	return addrs, erase
}
