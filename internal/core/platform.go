// Package core assembles the complete SSDExplorer virtual platform — the
// paper's primary contribution. It wires the RTL-equivalent control path
// (CPU complex, AMBA AHB interconnect, channel/way controllers), the
// cycle-accurate data-path components (host interface, DDR2 buffers, NAND
// array) and the parametric time-delay blocks (ECC, compressor, WAF-FTL)
// into one discrete-event simulation, and provides the measurement modes
// behind the paper's performance-breakdown columns (host ideal, host+DDR,
// DDR+flash, full SSD with cache/no-cache buffer policies).
package core

import (
	"errors"
	"fmt"

	"repro/internal/amba"
	"repro/internal/compress"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/ctrl"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/workload"
)

// Mode selects what part of the platform a run exercises — the paper's
// breakdown columns in Figs. 3 and 4.
type Mode int

// Measurement modes.
const (
	// ModeFull simulates the complete SSD (the "SSD cache"/"SSD no cache"
	// columns, depending on the configured buffer policy).
	ModeFull Mode = iota
	// ModeHostIdeal sinks commands at the host interface ("SATA ideal" /
	// "PCIE ideal").
	ModeHostIdeal
	// ModeHostDDR completes commands once data lands in the DRAM buffers
	// ("SATA+DDR" / "PCIE+DDR").
	ModeHostDDR
	// ModeDDRFlash bypasses the host and drains pre-buffered data to the
	// NAND array ("DDR+FLASH").
	ModeDDRFlash
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "ssd"
	case ModeHostIdeal:
		return "host-ideal"
	case ModeHostDDR:
		return "host+ddr"
	case ModeDDRFlash:
		return "ddr+flash"
	}
	return "?"
}

// Platform is one fully-assembled simulated SSD. A platform is single-use:
// build, run one workload, read the result.
type Platform struct {
	Cfg config.Platform
	K   *sim.Kernel

	Bus      *amba.Bus
	DRAM     *dram.Pool
	Channels []*ctrl.Channel
	Host     *hostif.Interface
	CPU      *cpu.Complex
	Comp     *compress.Engine

	ecc    *eccPool // hub ECC pool; serves every channel on the serial core
	scheme ecc.Scheme

	// Parallel event core (nil/empty in the default monolithic mode). ds is
	// the domain coordinator; K aliases the hub domain's kernel so all
	// hub-side code runs unchanged. See parallel.go.
	ds         *sim.DomainSet
	shardBuses []*amba.Bus
	shardDRAM  []*dram.Buffer
	shardECC   []*eccPool

	wafModel *ftl.Model
	mapper   *mapperFTL       // non-nil in ftl_mode = mapper
	firmware *cpu.FirmwareFTL // non-nil in cpu_model = firmware
	alloc    *ctrl.PageAllocator

	// writeCache bounds dirty (buffered, not yet programmed) pages: the
	// finite DRAM write cache whose backpressure makes the "SSD cache"
	// columns converge to the sustained flash drain rate.
	writeCache *sim.TokenGate

	hostDMA *amba.Master

	geo        nand.Geometry
	tim        nand.Timing
	pageBytes  int
	totalDies  int
	planeBatch int

	// Write-path state.
	compDebt    int64 // channel-compressor fractional-page accumulator
	stripe      int64
	pending     [][]writePage // per-die accumulating multi-plane batch pages
	lastWritten []nand.Addr
	hasWritten  []bool
	expectedLBA int64

	// issueWrite's scratch: allocator output and one sub-batch's spans.
	addrScratch, eraseScratch []nand.Addr
	spanScratch               []*telemetry.Span

	// Pooled flash dispatch records (see program, readPage, issueWrite,
	// gcCopy).
	programOps   sim.FreeList[programOp]
	readOps      sim.FreeList[readOp]
	writeBatches sim.FreeList[writeBatch]
	gcReads      sim.FreeList[gcRead]

	// Pooled command records (see command); liveRecs counts the records
	// taken and not yet freed.
	cmdRecs  sim.FreeList[command]
	liveRecs int

	// The hosted run's mode, and the commands waiting on firmware: one
	// FIFO per CPU core and the core's task-end step, bound once in Build
	// (see handleCommand).
	mode     Mode
	fwWait   []sim.FIFO[*hostif.Command]
	fwDoneFn []func()

	// Bookkeeping.
	flashWritesInFlight int
	rng                 *sim.RNG

	// tracer is the device-wide event tracer (nil unless EnableTracing ran
	// before the run); Run folds its report into Result.Utilization.
	tracer *evtrace.Tracer

	// Replay classification state: liveClass is the streaming generator's
	// windowed classifier (nil outside adaptive replay) and wafRandom the
	// write-address regime the current WAF model was resolved for.
	liveClass *workload.Classifier
	wafRandom bool
	writeCmds uint64

	stats runStats
}

type runStats struct {
	userPages   uint64
	gcCopies    uint64
	eraseOps    uint64
	randomCmds  uint64
	seqCmds     uint64
	flashReads  uint64
	flashWrites uint64
}

// Build assembles a platform from a validated configuration.
func Build(cfg config.Platform) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{Cfg: cfg, K: sim.NewKernel(), rng: sim.NewRNG(cfg.Seed)}
	if cfg.Parallel {
		// Per-channel clock domains with conservative lookahead; the hand-off
		// latency doubles as the window width. The hub (domain 0) kernel
		// replaces the monolithic one so hub-side models build unchanged.
		p.ds = sim.NewDomainSet(1+cfg.Channels, handoff)
		p.K = p.ds.Domain(0).K
	}

	// NAND geometry and timing.
	p.geo = nand.DefaultGeometry()
	switch cfg.NANDProfile {
	case "vertex":
		p.tim = nand.ProfileVertex()
	default:
		p.tim = nand.ProfileExplore()
	}
	p.pageBytes = p.geo.PageBytes
	p.totalDies = cfg.TotalDies()
	p.planeBatch = 1
	if cfg.MultiPlane && cfg.CachePolicy == "cache" {
		p.planeBatch = p.geo.PlanesPerDie
	}

	// Interconnect: the validated platform uses one shared AHB layer; the
	// master count scales with channel count (one PP-DMA port each, plus
	// the host DMA), which large Table II instances require.
	busCfg := amba.DefaultConfig()
	busCfg.Layers = cfg.AHBLayers
	if need := cfg.Channels + 2; need > busCfg.MaxMasters {
		busCfg.MaxMasters = need
	}
	bus, err := amba.NewBus(p.K, busCfg)
	if err != nil {
		return nil, err
	}
	p.Bus = bus
	p.hostDMA, err = bus.AttachMaster("host-dma")
	if err != nil {
		return nil, err
	}

	// DRAM buffer pool. In parallel mode each channel domain owns a private
	// buffer (see buildChannels); the hub keeps one staging buffer for the
	// host DMA path.
	nbuf := cfg.DDRBuffers
	if p.ds != nil {
		nbuf = 1
	}
	p.DRAM, err = dram.NewPool(p.K, nbuf, dram.DDR2_800x16(64<<20))
	if err != nil {
		return nil, err
	}

	// ECC scheme and hub engine pool (built before the channels so parallel
	// mode can size the per-shard pools from the resolved scheme).
	if cfg.ECCScheme != "none" {
		var lat ecc.LatencyModel
		if cfg.ECCLatency == "bit-serial" {
			lat = ecc.BitSerialLatency()
		} else {
			lat = ecc.ByteParallelLatency()
		}
		switch cfg.ECCScheme {
		case "fixed":
			p.scheme = ecc.FixedBCH{T: cfg.ECCT, Lat: lat}
		case "adaptive":
			tbl, err := ecc.BuildCorrectionTable(ecc.TableParams{
				CodewordBits: 8192 + 14*cfg.ECCT,
				TMax:         cfg.ECCT,
				TStep:        4,
				TargetCFR:    1e-15,
				Buckets:      64,
				RBER:         p.tim.RBER,
			})
			if err != nil {
				return nil, err
			}
			p.scheme = ecc.AdaptiveBCH{Table: tbl, Lat: lat}
		}
	}
	p.ecc = p.newECCPool(p.K, "")

	// Channel/way controllers and the NAND array.
	gang, err := ctrl.ParseGangMode(cfg.GangMode)
	if err != nil {
		return nil, err
	}
	if err := p.buildChannels(gang); err != nil {
		return nil, err
	}

	// Host interface.
	hcfg, err := hostif.Parse(cfg.HostIF)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth > 0 {
		hcfg.QueueDepth = cfg.QueueDepth
	}
	p.Host, err = hostif.New(p.K, hcfg)
	if err != nil {
		return nil, err
	}

	// CPU complex.
	ccfg := cpu.DefaultConfig()
	ccfg.Cores = cfg.CPUCores
	p.CPU, err = cpu.NewComplex(p.K, ccfg)
	if err != nil {
		return nil, err
	}
	p.fwWait = make([]sim.FIFO[*hostif.Command], len(p.CPU.Cores()))
	p.fwDoneFn = make([]func(), len(p.fwWait))
	for i := range p.fwDoneFn {
		p.fwDoneFn[i] = func() { p.firmwareDone(i) }
	}
	if cfg.CPUModel == "firmware" {
		// Real firmware execution: the ARMv4-subset FTL lookup routine
		// runs on the interpreter per command; the platform charges the
		// actually-executed cycles instead of the parametric model.
		const fwPages = 1 << 20 // 4 GiB of 4 KiB pages in the SRAM table
		p.firmware, err = cpu.NewFirmwareFTL(fwPages, p.totalDies, 1<<20)
		if err != nil {
			return nil, err
		}
	}

	// Compressor.
	place, err := compress.ParsePlacement(cfg.CompressPlacement)
	if err != nil {
		return nil, err
	}
	p.Comp, err = compress.NewEngine(p.K, compress.Config{
		Placement: place, Ratio: cfg.CompressRatio, MBps: cfg.CompressMBps,
	})
	if err != nil {
		return nil, err
	}

	// FTL abstraction: greedy WAF for the configured over-provisioning.
	waf := cfg.WAFOverride
	if waf == 0 {
		waf = 1 // sequential default; Run sets the pattern-specific value
	}
	p.wafModel, err = ftl.NewModel(waf, p.geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}

	p.programOps.Max, p.readOps.Max, p.writeBatches.Max = sim.PoolCap, sim.PoolCap, sim.PoolCap
	p.gcReads.Max, p.cmdRecs.Max = sim.PoolCap, sim.PoolCap
	p.alloc = ctrl.NewPageAllocator(p.totalDies, p.geo)
	p.pending = make([][]writePage, p.totalDies)
	p.spanScratch = make([]*telemetry.Span, 0, p.geo.PlanesPerDie)
	p.lastWritten = make([]nand.Addr, p.totalDies)
	p.hasWritten = make([]bool, p.totalDies)
	p.expectedLBA = -1
	cachePages := cfg.WriteCachePages
	if cachePages <= 0 {
		cachePages = 1024
	}
	p.writeCache = sim.NewTokenGate(p.K, cachePages)
	if cfg.FTLMode == "mapper" {
		if err := p.buildMapperFTL(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// chanDie splits a global die index into (channel, die-in-channel).
func (p *Platform) chanDie(gdie int) (int, int) {
	return gdie % p.Cfg.Channels, gdie / p.Cfg.Channels
}

// eccEncode charges ECC encode latency for pages on channel ch's pool and
// continues with done on that pool's kernel.
func (p *Platform) eccEncode(ch, pages int, done func()) {
	var lat sim.Time
	if p.scheme != nil {
		lat = p.scheme.EncodeLatency(p.Cfg.Wear) * sim.Time(pages)
	}
	p.eccFor(ch).run(lat, done)
}

// eccDecode charges ECC decode latency for pages on channel ch's pool and
// continues with done on that pool's kernel.
func (p *Platform) eccDecode(ch, pages int, done func()) {
	var lat sim.Time
	if p.scheme != nil {
		lat = p.scheme.DecodeLatency(p.Cfg.Wear) * sim.Time(pages)
	}
	p.eccFor(ch).run(lat, done)
}

// The flash dispatch helpers: erase, program and readPage are the only
// hub code that hands work to a ctrl.Channel, one per op kind, and both the
// WAF abstraction and the mapper FTL issue their flash traffic through
// them. Each owns four things: the hop from the hub to the die's channel
// (and back for a completion), the op's runStats counter, the ECC stage
// that goes with the op and the panic on a dispatch error. Program and read
// ride pooled records (programOp, readOp) whose hop and ECC steps are bound
// once, when the record is built, so the serial core dispatches a flash op
// without allocating.

// erase erases block (a.Plane, a.Block) of global die gdie.
func (p *Platform) erase(gdie int, a nand.Addr) {
	ch, die := p.chanDie(gdie)
	p.stats.eraseOps++
	p.toShard(ch, func() {
		if err := p.Channels[ch].Erase(die, a.Plane, a.Block, nil); err != nil {
			panic(fmt.Sprintf("core: erase dispatch failed: %v", err))
		}
	})
}

// flashPage names one physical page: a global die and an address on it.
type flashPage struct {
	gdie int
	addr nand.Addr
}

// programOp is one program dispatch in flight from the hub to a channel:
// a copy of the batch's addresses and spans, its prep stage's inputs and
// the completion. It recycles once ctrl.Channel.Program returns, because
// the controller copies the batch and runs the prep stage's first step
// before that.
type programOp struct {
	p        *Platform
	ch, die  int
	addrs    []nand.Addr
	spans    []*telemetry.Span
	gcPages  int
	reloc    bool      // the batch relocates src
	src      flashPage // the relocation's source page
	fin      func()
	dispatch func()
	prep     func(ready func())
}

// takeProgram takes a pooled program record, or builds one and binds its
// steps.
func (p *Platform) takeProgram() *programOp {
	if r := p.programOps.Take(); r != nil {
		return r
	}
	r := &programOp{p: p}
	r.dispatch, r.prep = r.run, r.encode
	return r
}

// program enqueues addrs, a multi-plane batch in allocation order, on global
// die gdie's channel; spans and gcPages go to ctrl.Channel.Program. The
// batch's prep stage is the ECC encode on the channel's pool. A relocation
// names its source page in src: its prep stage instead hops to the source
// channel, reads the page there, decodes and re-encodes it on that
// channel's pool and hops back. The program is enqueued at once either
// way, so the data dependency costs real time without reordering programs
// on the die; within one channel the hops are direct calls. done, if
// non-nil, runs on the hub when the program completes. addrs and spans are
// copied, so the caller may reuse them at once.
//
//ssdx:hotpath
func (p *Platform) program(gdie int, addrs []nand.Addr, spans []*telemetry.Span, gcPages int, src *flashPage, done func()) {
	ch, die := p.chanDie(gdie)
	p.stats.flashWrites += uint64(len(addrs))
	r := p.takeProgram()
	r.ch, r.die, r.gcPages = ch, die, gcPages
	r.addrs = append(r.addrs[:0], addrs...)
	r.spans = append(r.spans[:0], spans...)
	r.reloc = src != nil
	if src != nil {
		p.stats.flashReads++
		r.src = *src
	}
	r.fin = p.hubFn(ch, done)
	p.toShard(ch, r.dispatch)
}

// run hands the batch to its channel and recycles the record.
//
//ssdx:hotpath
func (r *programOp) run() {
	p := r.p
	err := p.Channels[r.ch].Program(r.die, r.addrs, p.pageBytes, r.spans, r.gcPages, r.prep, r.fin)
	clear(r.spans)
	r.fin = nil
	p.programOps.Give(r)
	if err != nil {
		dispatchPanic("program", err)
	}
}

// encode is the batch's prep stage: the ECC encode on the channel's pool,
// or a relocation's read-decode-encode (relocate).
//
//ssdx:hotpath
func (r *programOp) encode(ready func()) {
	if r.reloc {
		r.p.relocate(r.ch, len(r.addrs), r.src, ready)
		return
	}
	r.p.eccEncode(r.ch, len(r.addrs), ready)
}

// relocate is a relocation's prep stage for an n-page batch on channel ch:
// hop to the source page's channel, read and decode the page there,
// re-encode it on that channel's pool and hop back with ready.
func (p *Platform) relocate(ch, n int, src flashPage, ready func()) {
	srcCh, srcDie := p.chanDie(src.gdie)
	fin := p.crossFn(srcCh, ch, ready)
	p.cross(ch, srcCh, func() {
		r := p.takeRead()
		r.ch, r.die, r.addr, r.gc = srcCh, srcDie, src.addr, true
		r.fin = func() { p.eccEncode(srcCh, n, fin) }
		p.sense(r)
	})
}

// readOp is one page read in flight from the hub to a channel, through the
// array read to its decode. It recycles when the decode starts.
type readOp struct {
	p       *Platform
	ch, die int
	addr    nand.Addr
	lba     int64
	sp      *telemetry.Span
	gc      bool
	fin     func()

	dispatch, decode func()
}

// takeRead takes a pooled read record, or builds one and binds its steps.
func (p *Platform) takeRead() *readOp {
	if r := p.readOps.Take(); r != nil {
		return r
	}
	r := &readOp{p: p}
	r.dispatch, r.decode = r.run, r.decoded
	return r
}

// readPage reads one flash page of global die gdie and decodes it, then
// continues with done on the hub. The array read and its decode run on the
// die's channel, and a non-GC read's first-touch preload rides the same hop,
// so die state is only ever inspected by its owning domain. sp, when
// non-nil, receives the read's stage attribution; lba names the request in
// a preload failure. gc marks a GC relocation source read, which never
// preloads.
//
//ssdx:hotpath
func (p *Platform) readPage(gdie int, addr nand.Addr, lba int64, sp *telemetry.Span, gc bool, done func()) {
	ch, die := p.chanDie(gdie)
	p.stats.flashReads++
	r := p.takeRead()
	r.ch, r.die, r.addr, r.lba, r.sp, r.gc = ch, die, addr, lba, sp, gc
	r.fin = p.hubFn(ch, done)
	p.toShard(ch, r.dispatch)
}

// run is a read's first step on the die's channel.
//
//ssdx:hotpath
func (r *readOp) run() {
	if !r.gc {
		r.p.preloadOnFirstTouch(r.ch, r.die, r.addr, r.lba)
	}
	r.p.sense(r)
}

// sense reads r's page and has r decode it on the channel's ECC pool. It
// runs on the channel's domain.
//
//ssdx:hotpath
func (p *Platform) sense(r *readOp) {
	if err := p.Channels[r.ch].Read(r.die, r.addr, p.pageBytes, r.sp, r.gc, r.decode); err != nil {
		dispatchPanic("read", err)
	}
}

// decoded starts the page's decode once it is in DRAM, recycling the
// record; the decode continues with the read's completion.
//
//ssdx:hotpath
func (r *readOp) decoded() {
	p, ch, fin := r.p, r.ch, r.fin
	r.sp, r.fin = nil, nil
	p.readOps.Give(r)
	p.eccDecode(ch, 1, fin)
}

// dispatchPanic reports a failed flash dispatch off the hot path.
func dispatchPanic(op string, err error) {
	panic(fmt.Sprintf("core: %s dispatch failed: %v", op, err))
}

// readAddr maps a logical page index to a deterministic physical location in
// the read region (the top half of each plane's block range, so the write
// frontier growing from block 0 does not collide with it). Each page in it
// is preloaded on its first read.
func (p *Platform) readAddr(pageIdx int64) (gdie int, a nand.Addr) {
	gdie = int(pageIdx % int64(p.totalDies))
	w := pageIdx / int64(p.totalDies)
	a.Plane = int(w % int64(p.geo.PlanesPerDie))
	w /= int64(p.geo.PlanesPerDie)
	a.Page = int(w % int64(p.geo.PagesPerBlock))
	w /= int64(p.geo.PagesPerBlock)
	half := int64(p.geo.BlocksPerPlane / 2)
	a.Block = p.geo.BlocksPerPlane - 1 - int(w%half)
	return gdie, a
}

// writePage is one page accumulating in a die's multi-plane batch: the
// host command's span (nil for GC relocations and drain traffic), the
// program-completion callback, and the GC flag that routes the page's array
// time to the gc_program op kind in the utilization timeline.
type writePage struct {
	span *telemetry.Span
	done func()
	gc   bool
}

// flashWrite routes one user page through ECC into the NAND array,
// accumulating multi-plane batches per die. sp, when non-nil, is the host
// command's span: it rides the batch so the controller can attribute the
// page's write stages to the command even when the batch mixes pages of
// several commands. done fires when the page's program completes.
//
//ssdx:hotpath
func (p *Platform) flashWrite(sp *telemetry.Span, done func()) {
	u := p.stripe / int64(p.planeBatch)
	p.stripe++
	gdie := int(u % int64(p.totalDies))
	p.pending[gdie] = append(p.pending[gdie], writePage{span: sp, done: done})
	p.stats.userPages++
	if len(p.pending[gdie]) >= p.planeBatch {
		p.issueBatch(gdie)
	}
	// FTL abstraction: inject greedy-GC traffic for this user write.
	copies, _ := p.wafModel.OnUserWrite()
	for i := 0; i < copies; i++ {
		p.gcCopy()
	}
}

// writeBatch is the completion of one program sub-batch: the die, its last
// address and a copy of its pages, whose callbacks it runs. It recycles
// once they have run.
type writeBatch struct {
	p     *Platform
	gdie  int
	last  nand.Addr
	pages []writePage
	done  func()
}

// takeBatch takes a pooled batch completion, or builds one and binds its
// callback.
func (p *Platform) takeBatch() *writeBatch {
	if b := p.writeBatches.Take(); b != nil {
		return b
	}
	b := &writeBatch{p: p}
	b.done = b.programmed
	return b
}

// programmed records the die's last written page and retires the batch's
// pages in order.
//
//ssdx:hotpath
func (b *writeBatch) programmed() {
	p := b.p
	p.lastWritten[b.gdie] = b.last
	p.hasWritten[b.gdie] = true
	for _, pg := range b.pages {
		if pg.done != nil {
			pg.done()
		}
	}
	clear(b.pages)
	b.pages = b.pages[:0]
	p.writeBatches.Give(b)
}

// issueWrite allocates physical pages on the hub and issues the programs in
// allocation order, so per-die program order always equals allocation
// order. Nothing here outlives the call: program copies each sub-batch's
// addresses and spans, and each sub-batch's completion copies its pages,
// so the allocator scratch, the span scratch and pages are all reused.
//
//ssdx:hotpath
func (p *Platform) issueWrite(gdie int, pages []writePage) {
	addrs, erases := p.alloc.Batch(gdie, len(pages), p.addrScratch[:0], p.eraseScratch[:0])
	for len(addrs) < len(pages) {
		addrs, erases = p.alloc.Batch(gdie, len(pages)-len(addrs), addrs, erases)
	}
	p.addrScratch, p.eraseScratch = addrs, erases
	for _, e := range erases {
		p.erase(gdie, e)
	}
	// Issue plane-group sub-batches in allocation order.
	now := p.K.Now()
	start := 0
	for start < len(addrs) {
		end := start + 1
		for end < len(addrs) &&
			addrs[end].Block == addrs[start].Block &&
			addrs[end].Page == addrs[start].Page {
			end++
		}
		batch := addrs[start:end]
		batchPages := pages[start:end]
		// The wait for the multi-plane batch to fill is channel-controller
		// batching: charge it to the chan stage now, so the prep interval
		// that follows is pure encode.
		spans := p.spanScratch[:0]
		haveSpan := false
		gcPages := 0
		for _, pg := range batchPages {
			spans = append(spans, pg.span)
			if pg.span != nil {
				pg.span.Advance(telemetry.StageChan, now)
				haveSpan = true
			}
			if pg.gc {
				gcPages++
			}
		}
		p.spanScratch = spans
		if !haveSpan {
			spans = nil
		}
		b := p.takeBatch()
		b.gdie, b.last = gdie, batch[len(batch)-1]
		b.pages = append(b.pages, batchPages...)
		p.program(gdie, batch, spans, gcPages, nil, b.done)
		start = end
	}
}

// issueBatch sends a die's accumulated pages to the channel controller and
// keeps the die's pending slice for the next batch.
//
//ssdx:hotpath
func (p *Platform) issueBatch(gdie int) {
	pages := p.pending[gdie]
	if len(pages) == 0 {
		return
	}
	p.issueWrite(gdie, pages)
	clear(pages)
	p.pending[gdie] = pages[:0]
}

// gcCopy models one greedy-GC page relocation: read a programmed page and
// decode it, then re-encode (as the program's prep stage) and program a
// fresh page. The traffic rides the same channels, buses and ECC engines as
// user traffic, which is exactly how the WAF abstraction injects FTL cost
// without an FTL implementation. The read and its decode run on the source
// channel; the relocated page rejoins the hub's per-die batch when the
// read completes (gcRead).
//
//ssdx:hotpath
func (p *Platform) gcCopy() {
	gdie := int(p.rng.Intn(p.totalDies))
	if !p.hasWritten[gdie] {
		return // nothing to relocate yet on this die
	}
	p.stats.gcCopies++
	r := p.takeGCRead()
	r.gdie = gdie
	p.readPage(gdie, p.lastWritten[gdie], 0, nil, true, r.done)
}

// gcRead is one GC copy's source read in flight: the die whose batch the
// relocated page joins. It recycles when the read completes.
type gcRead struct {
	p    *Platform
	gdie int
	done func()
}

// takeGCRead takes a pooled GC read, or builds one and binds its
// completion.
func (p *Platform) takeGCRead() *gcRead {
	if r := p.gcReads.Take(); r != nil {
		return r
	}
	r := &gcRead{p: p}
	r.done = r.read
	return r
}

// read adds the relocated page to its die's batch. GC programs join the
// same per-die multi-plane batches as user pages (real collectors relocate
// pages in bulk); they carry no span, as no host command waits on them.
//
//ssdx:hotpath
func (r *gcRead) read() {
	p, gdie := r.p, r.gdie
	p.gcReads.Give(r)
	p.pending[gdie] = append(p.pending[gdie], writePage{gc: true})
	if len(p.pending[gdie]) >= p.planeBatch {
		p.issueBatch(gdie)
	}
}

// flushPartialBatches forces out every incomplete multi-plane group (end of
// stream or drain measurements).
func (p *Platform) flushPartialBatches() {
	for gdie := range p.pending {
		if len(p.pending[gdie]) > 0 {
			p.issueBatch(gdie)
		}
	}
}

var errStalled = errors.New("core: simulation stalled before completing the workload")

// resolveWAF sets the FTL abstraction's amplification for the workload's
// write-address behaviour (sequential traffic ~1, random traffic the greedy
// steady state).
func (p *Platform) resolveWAF(randomWrites bool) error {
	waf := p.Cfg.WAFOverride
	if waf == 0 {
		var err error
		waf, err = ftl.ForPattern(randomWrites, p.Cfg.SpareFactor)
		if err != nil {
			return err
		}
	}
	m, err := ftl.NewModel(waf, p.geo.PagesPerBlock)
	if err != nil {
		return err
	}
	p.wafModel = m
	p.wafRandom = randomWrites
	return nil
}
