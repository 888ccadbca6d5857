package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/dram"
	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is the outcome of one platform run.
type Result struct {
	Config   string
	Topology string
	Mode     Mode
	Pattern  trace.Pattern
	Workload string // compact workload description (mix, skew, arrival, ...)

	Requests   int
	BlockBytes int64
	BytesMoved int64

	MBps     float64 // steady-state (tail) throughput
	RampMBps float64 // whole-run throughput including cache warm-up
	SimTime  sim.Time

	// Simulation-speed metrics (Fig. 6): simulated CPU kilo-cycles per
	// wall-clock second, plus raw event throughput.
	WallSeconds float64
	KCPS        float64
	Events      uint64

	// Per-op-class command latency (host-perceived, queued-to-completion,
	// microseconds): reads and writes measured separately plus the
	// combined distribution over every op class. When the workload flags
	// record phases, the distributions cover only the measured window.
	ReadLat  workload.LatStats
	WriteLat workload.LatStats
	AllLat   workload.LatStats

	// Stages attributes the same command latency to pipeline stages
	// (queued, wire, CPU, DRAM, chan, bus, NAND, ECC) by critical-path
	// watermarking; the stage means sum to AllLat's mean. This is the
	// paper's breakdown philosophy applied to latency instead of
	// throughput.
	Stages telemetry.Breakdown

	// Phases, on multi-phase scenarios, carries one latency/stage profile
	// per workload phase — unrecorded precondition phases included — so a
	// precondition -> measure (or any phase chain) reports every phase's
	// stage breakdown, not only the last window's. Empty on single-phase
	// runs, where Stages already covers the whole story; multi-queue runs
	// carry per-tenant phase profiles inside Tenants instead.
	Phases []telemetry.PhaseProfile `json:"phases,omitempty"`

	// Open-loop saturation: when offered load exceeds device capacity the
	// arrival backlog grows without bound and the latency figures describe
	// the run length, not the device. BacklogGrowth is the fitted growth
	// rate of arrival lag over the declared arrival timeline
	// (dimensionless; approaches λ/μ - 1 for offered rate λ above service
	// rate μ) and Saturated flags growth beyond the detection threshold.
	Saturated     bool
	BacklogGrowth float64

	// Multi-queue (tenant) runs only: the per-tenant breakdowns and Jain's
	// fairness index over weight-normalised tenant throughput (1 = every
	// tenant got exactly its share; toward 1/n as one tenant starves the
	// rest). Empty / zero on single-stream runs.
	Tenants  []TenantResult `json:"tenants,omitempty"`
	Fairness float64        `json:"fairness,omitempty"`

	// Microarchitectural observability (the paper's FGDSE purpose).
	WAF           float64
	HostQueuePeak int
	BusUtil       float64
	CPUUtil       float64
	UserPages     uint64
	GCCopies      uint64
	Erases        uint64
	FlashWrites   uint64
	FlashReads    uint64
	Completed     uint64

	// Utilization is the device-wide event-tracing report — per-resource
	// busy fractions, die occupancy timelines, GC share and the simulator
	// self-profile. Nil unless the platform ran with EnableTracing.
	Utilization *evtrace.Report `json:"utilization,omitempty"`
}

// String renders a one-line summary.
//
//ssdx:export
func (r Result) String() string {
	label := r.Workload
	if label == "" {
		label = r.Pattern.String()
	}
	return fmt.Sprintf("%-8s %-22s %-9s %s: %8.1f MB/s (sim %v, %d reqs, WAF %.2f)",
		r.Config, r.Topology, r.Mode, label, r.MBps, r.SimTime, r.Requests, r.WAF)
}

// Run executes the workload on the platform in the given mode and returns
// the measured result. The platform is single-use. The workload streams
// through the platform one request at a time — synthetic patterns, mixed
// ratios, skewed addressing, open-loop arrivals, multi-phase scenarios and
// trace replay all ride the same pull-based generator path.
func (p *Platform) Run(w workload.Spec, mode Mode) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if mode == ModeDDRFlash && !w.Simple() {
		return Result{}, errors.New("core: ddr+flash drain mode measures plain closed-loop synthetic workloads only")
	}
	// No workload needs a pre-scan: every read preloads its page on first
	// touch (on the die's owning channel), and trace replay re-resolves the
	// WAF abstraction from the generator's windowed classification as the
	// file streams.
	if err := p.resolveWAF(w.RandomWrites()); err != nil {
		return Result{}, err
	}
	res, err := p.run(mode, w.Describe(), w.TotalRequests(), func() (Result, error) {
		if mode == ModeDDRFlash {
			return p.runDrain(w)
		}
		return p.runHosted(w, mode)
	})
	if err != nil {
		return res, err
	}
	res.Pattern = w.Pattern
	res.BlockBytes = w.BlockSize
	return res, nil
}

// run is the body every entry point shares. measure drives the event core
// and returns the throughput figures — the host interface's for a hosted
// run, the flash drain's in ddr+flash mode. run then fills every field the
// entry points share; label is the workload description and requests the
// declared request count (negative: as many as completed). The caller adds
// its own extra fields.
func (p *Platform) run(mode Mode, label string, requests int, measure func() (Result, error)) (Result, error) {
	wallStart := time.Now() //ssdx:wallclock
	res, err := measure()
	if err != nil {
		return Result{}, err
	}
	res.Config = p.Cfg.Name
	res.Topology = p.Cfg.Describe()
	res.Mode = mode
	res.Workload = label
	res.Requests = requests
	if requests < 0 {
		res.Requests = int(res.Completed)
	}
	res.WallSeconds = time.Since(wallStart).Seconds() //ssdx:wallclock
	now := p.simNow()
	if res.WallSeconds > 0 {
		cycles := float64(p.CPU.Clock().CyclesAt(now))
		res.KCPS = cycles / 1000 / res.WallSeconds
	}
	res.Events = p.kernelEvents()
	res.SimTime = now
	res.WAF = p.wafModel.WAF
	if p.liveClass != nil && p.stats.userPages > 0 {
		// Live reclassification switches WAF models mid-run; report the
		// amplification actually applied over the whole run (user plus
		// injected GC pages per user page), not the final regime's
		// constant.
		res.WAF = float64(p.stats.userPages+p.stats.gcCopies) / float64(p.stats.userPages)
	}
	if p.mapper != nil && p.mapper.m.Stats.UserWrites > 0 {
		res.WAF = p.mapper.m.MeasuredWAF()
	}
	res.BusUtil = p.busUtilization(now)
	res.CPUUtil = p.CPU.Utilization(now)
	res.UserPages = p.stats.userPages
	res.GCCopies = p.stats.gcCopies
	res.Erases = p.stats.eraseOps
	res.FlashWrites = p.stats.flashWrites
	res.FlashReads = p.stats.flashReads
	res.Utilization = p.utilizationReport(res.WallSeconds)
	return res, nil
}

// playHost plays a command stream through the host interface and reads back
// the host-side figures. start launches one of the host's players with the
// platform's command handler and drain callback; the event core then runs to
// completion, and a stream error (streamErr) or a stall fails the run.
func (p *Platform) playHost(mode Mode, start func(handler func(*hostif.Command), onDrained func()) error, streamErr func() error) (Result, error) {
	drained := false
	p.mode = mode
	if err := start(p.handleCommand, func() { drained = true }); err != nil {
		return Result{}, err
	}
	p.runKernel()
	if err := streamErr(); err != nil {
		return Result{}, err
	}
	h := p.Host
	if !drained {
		return Result{}, fmt.Errorf("%w (%d completed, %d outstanding)",
			errStalled, h.Stats.Completed, h.Outstanding())
	}
	res := Result{
		MBps:          h.TailThroughputMBps(),
		RampMBps:      h.ThroughputMBps(),
		BytesMoved:    int64(h.Stats.BytesRead + h.Stats.BytesWritten),
		Completed:     h.Stats.Completed,
		HostQueuePeak: h.Stats.QueuePeak,
		ReadLat:       h.Latency().Read(),
		WriteLat:      h.Latency().Write(),
		AllLat:        h.Latency().All(),
		Stages:        h.StageBreakdown(),
	}
	res.Saturated, res.BacklogGrowth = h.Saturation()
	return res, nil
}

// runHosted streams the workload through the host interface.
func (p *Platform) runHosted(w workload.Spec, mode Mode) (Result, error) {
	st, err := w.Stream()
	if err != nil {
		return Result{}, err
	}
	defer st.Close()
	res, err := p.playStream(st, mode)
	if err != nil {
		return res, err
	}
	res.Phases = labeledPhases(p.Host.QueuePhaseProfiles(0), w.Phases)
	return res, nil
}

// playStream plays one compiled workload stream through the single-stream
// host player.
func (p *Platform) playStream(st *workload.Stream, mode Mode) (Result, error) {
	st.SetClock(func() float64 { return p.K.Now().Microseconds() })
	// Live WAF re-resolution while a self-classifying stream plays
	// (WAF-abstraction mode only; an explicit override pins the value and
	// the mapper FTL measures its own amplification).
	if p.mapper == nil && p.Cfg.WAFOverride == 0 {
		p.liveClass = st.Classification()
	}
	return p.playHost(mode, func(handler func(*hostif.Command), onDrained func()) error {
		return p.Host.Run(st, handler, onDrained)
	}, func() error {
		if err := st.Err(); err != nil {
			return fmt.Errorf("core: workload stream: %w", err)
		}
		return nil
	})
}

// labeledPhases attaches workload labels to host-interface phase profiles.
// Single-phase runs return nil: their one profile would only duplicate the
// window breakdown.
func labeledPhases(profiles []telemetry.PhaseProfile, phases []workload.Spec) []telemetry.PhaseProfile {
	if len(profiles) <= 1 {
		return nil
	}
	for i := range profiles {
		if idx := profiles[i].Index; idx >= 0 && idx < len(phases) {
			profiles[i].Label = phases[idx].Describe()
		}
	}
	return profiles
}

// handleCommand is the full command-processing path, in the run's mode
// (p.mode). A command first pays its firmware cost: it waits for its core
// as a bare host command on that core's FIFO, and its device record (see
// command) is built only when the task ends (firmwareDone). A deep NVMe
// window can put tens of thousands of commands behind one core, and this
// way each holds no more than its host command there. Host+DDR mode skips
// the firmware for reads and writes, which isolates the DMA+DRAM path like
// the paper's SATA+DDR column, and builds the record at once.
func (p *Platform) handleCommand(cmd *hostif.Command) {
	if p.mode == ModeHostIdeal {
		p.Host.Complete(cmd)
		return
	}
	req := cmd.Req
	p.maybeReclassify()
	pages := 1 // trim and flush: firmware bookkeeping (the real FTL also unmaps)
	if req.Op == trace.OpWrite || req.Op == trace.OpRead {
		if p.mode == ModeHostDDR {
			p.newCommand(cmd).afterCPU()
			return
		}
		pages = p.pagesOf(req.Bytes)
	}
	core := p.CPU.NextCore()
	p.fwWait[core].Push(cmd)
	p.cpuCost(req, pages, p.fwDoneFn[core])
}

// firmwareDone ends core's oldest firmware task. Each core ends its tasks
// in the order they were queued, so the command at the head of its FIFO is
// the one whose task ended: build its record and continue it.
//
//ssdx:hotpath
func (p *Platform) firmwareDone(core int) {
	p.newCommand(p.fwWait[core].Pop()).afterCPU()
}

// reclassifyEvery is how many commands elapse between looks at the replay
// classifier's windowed sequentiality estimate.
const reclassifyEvery = 64

// maybeReclassify re-resolves the WAF abstraction from the live windowed
// classification of a streaming trace replay — the single-pass replacement
// for the old pre-scan: the model starts at the conservative random value
// and relaxes (or re-tightens) as the trailing write window changes regime.
// A stream that has issued no writes at all relaxes to the sequential model
// (there is no write traffic to amplify).
func (p *Platform) maybeReclassify() {
	if p.liveClass == nil {
		return
	}
	p.writeCmds++
	if p.writeCmds%reclassifyEvery != 0 {
		return
	}
	random := false
	if p.liveClass.Info().Writes > 0 {
		if !p.liveClass.Confident() {
			return // too few writes in the window to trust the estimate
		}
		random = p.liveClass.RandomWrites()
	}
	if random != p.wafRandom {
		if err := p.resolveWAF(random); err != nil {
			panic(fmt.Sprintf("core: WAF reclassification failed: %v", err))
		}
	}
}

// cpuCost charges firmware processing for a command (skipped in host+DDR
// mode, which isolates the DMA+DRAM path like the paper's SATA+DDR column).
func (p *Platform) cpuCost(req trace.Request, pages int, done func()) {
	random := p.expectedLBA >= 0 && req.LBA != p.expectedLBA
	if random {
		p.stats.randomCmds++
	} else {
		p.stats.seqCmds++
	}
	p.expectedLBA = req.EndLBA()
	var cycles int64
	if p.firmware != nil {
		// Execute the real firmware routine once per page of the command;
		// the interpreter's cycle count is the charge. Dispatch/completion
		// overheads still come from the parametric model (the routine
		// covers only the L2P step).
		costs := p.CPU.Config().Costs
		cycles = costs.Dispatch + costs.Completion
		lpn := req.LBA * trace.SectorSize / int64(p.pageBytes) % (1 << 20)
		for i := 0; i < pages; i++ {
			_, c, err := p.firmware.Resolve(lpn+int64(i), req.Op == trace.OpWrite)
			if err != nil {
				panic(fmt.Sprintf("core: firmware execution failed: %v", err))
			}
			cycles += c + costs.PerPage
		}
		// Random accesses miss the mapping-cache model the parametric
		// path includes; the flat table walk in SRAM is the firmware's
		// whole cost, so the distinction is carried by the routine itself.
	} else {
		cycles = p.CPU.Config().Costs.CommandCycles(random, pages)
	}
	p.CPU.Exec(cycles, done)
}

// pagesOf returns how many flash pages a request spans.
func (p *Platform) pagesOf(bytes int64) int {
	n := int((bytes + int64(p.pageBytes) - 1) / int64(p.pageBytes))
	if n < 1 {
		n = 1
	}
	return n
}

// command is the device-side record of one host command: the state its
// write or read path carries from stage to stage, and the stage steps. A
// record starts when the command's firmware task ends (firmwareDone), or
// at once for a host+DDR read or write, which pays no firmware cost. The
// record hands itself on through two callbacks bound once, when it is
// built: stepFn for every continuation but one (cache token, compressor
// done, host DMA, DRAM access, page programmed, page read), dispatching on
// stage, which a step sets before it hands stepFn on, and sentFn for a
// read's "page sent". A command waits on one stage at a time; only a
// read's pages overlap under stPages, where a page read and a page sent
// may both be pending, so the two need callbacks of their own. The
// //ssdx:hotpath stage methods therefore allocate nothing.
//
// Records recycle through a capped free list (Platform.cmdRecs) with their
// callbacks bound, and each holds its host command (hostif.Interface.Hold)
// from newCommand to its last step, because under the cache policy the
// page programs still advance the command's span after Complete. The last
// step calls free, which releases the host command and recycles the
// record: bookkept; a host+DDR landed; an occupied with no page left to
// program; the last programmed; the last pageSent.
type command struct {
	p     *Platform
	cmd   *hostif.Command
	stage cmdStage

	pages      int          // flash pages the request spans
	flashPages int          // pages to program once compression debt is settled
	remaining  int          // cache tokens, then programs, still to come (writes); pages still to send (reads)
	ddrBytes   int64        // bytes landing in DRAM (after host-side compression)
	chanBytes  int64        // bytes through the channel-side compressor
	buf        *dram.Buffer // the DRAM buffer a write lands in

	stepFn, sentFn func()
}

// cmdStage names what a command's pending callbacks continue with.
type cmdStage uint8

const (
	stCompress   cmdStage = iota // host-side compressor done
	stToken                      // one more write-cache page held
	stToDRAM                     // host DMA across the AHB done
	stLanded                     // write data landed in DRAM
	stOccupied                   // channel-side compressor done
	stPrograms                   // one page program retired
	stBufferRead                 // host+DDR read out of DRAM done
	stPages                      // one page read and decoded (sentFn: one page sent)
)

// newCommand takes a pooled command record, or builds one and binds its two
// callbacks, and holds cmd for it.
func (p *Platform) newCommand(cmd *hostif.Command) *command {
	c := p.cmdRecs.Take()
	if c == nil {
		c = &command{p: p}
		c.stepFn, c.sentFn = c.step, c.pageSent
	}
	*c = command{p: p, cmd: cmd, pages: p.pagesOf(cmd.Req.Bytes), stepFn: c.stepFn, sentFn: c.sentFn}
	p.Host.Hold(cmd)
	p.liveRecs++
	return c
}

// free ends a record at its command's last step: it releases the host
// command and recycles the record. Freeing a record twice panics.
//
//ssdx:hotpath
func (c *command) free() {
	p := c.p
	if c.cmd == nil {
		freePanic()
	}
	p.Host.Release(c.cmd)
	c.cmd, c.buf = nil, nil
	p.liveRecs--
	p.cmdRecs.Give(c)
}

// freePanic reports a twice-freed command record off the hot path.
func freePanic() {
	panic("core: command record freed twice")
}

// step continues a command at its stage.
//
//ssdx:hotpath
func (c *command) step() {
	switch c.stage {
	case stCompress:
		c.compressed()
	case stToken:
		c.token()
	case stToDRAM:
		c.dmaDone()
	case stLanded:
		c.landed()
	case stOccupied:
		c.occupied()
	case stPrograms:
		c.programmed()
	case stBufferRead:
		c.stage = stPages
		c.send(c.cmd.Req.Bytes)
	case stPages:
		c.pageRead()
	}
}

// afterCPU continues a new record once its command's firmware cost is
// paid: a write or read moves its data, a trim or flush completes.
//
//ssdx:hotpath
func (c *command) afterCPU() {
	switch c.cmd.Req.Op {
	case trace.OpWrite:
		c.writeAfterCPU()
	case trace.OpRead:
		c.readAfterCPU()
	default:
		c.bookkept()
	}
}

// bookkept completes a trim or flush once its firmware cost is paid.
func (c *command) bookkept() {
	p, req := c.p, c.cmd.Req
	c.cmd.Span.Advance(telemetry.StageCPU, p.K.Now())
	if req.Op == trace.OpTrim && p.mapper != nil {
		p.mapperTrim(req)
	}
	p.Host.Complete(c.cmd)
	c.free()
}

// writeAfterCPU starts a write: host DMA into DRAM (optionally through the
// host-side compressor), completion per buffer policy, then the flash
// flush path (channel-side compressor, ECC encode, channel controller,
// NAND program). It first runs host-side compression, which shrinks
// everything downstream of the host interface (AHB crossing, DRAM, NAND).
//
//ssdx:hotpath
func (c *command) writeAfterCPU() {
	p := c.p
	c.cmd.Span.Advance(telemetry.StageCPU, p.K.Now())
	c.ddrBytes = c.cmd.Req.Bytes
	if p.Comp.Config().Placement == compress.HostInterface {
		c.stage = stCompress
		c.ddrBytes = p.Comp.Process(p.K, c.ddrBytes, c.stepFn)
		return
	}
	c.compressed()
}

// compressed sizes the write downstream of host-side compression and asks
// the write cache to admit its pages.
//
//ssdx:hotpath
func (c *command) compressed() {
	p := c.p
	// Compressed streams fill whole flash pages as they accumulate: host
	// placement arrives in DRAM already compressed; channel placement
	// compresses between DRAM and the controller.
	ddrBytes := c.ddrBytes
	c.flashPages = c.pages
	switch p.Comp.Config().Placement {
	case compress.HostInterface:
		p.compDebt += ddrBytes
		c.flashPages = int(p.compDebt / int64(p.pageBytes))
		p.compDebt -= int64(c.flashPages) * int64(p.pageBytes)
	case compress.ChannelWay:
		out := p.Comp.OutputBytes(ddrBytes)
		p.Comp.Account(ddrBytes, out)
		p.compDebt += out
		c.flashPages = int(p.compDebt / int64(p.pageBytes))
		p.compDebt -= int64(c.flashPages) * int64(p.pageBytes)
		c.chanBytes = ddrBytes
	}
	c.buf = p.DRAM.ForChannel(int(p.stripe) % p.Cfg.Channels)
	if c.p.mode == ModeHostDDR {
		c.moveToDRAM()
		return
	}
	// Backpressure: the finite write cache must admit every page before the
	// host data can land in DRAM. Tokens are taken one at a time.
	c.remaining = c.flashPages
	if c.remaining <= 0 {
		c.admitted()
		return
	}
	c.stage = stToken
	p.writeCache.AcquireWhenFree(c.stepFn)
}

// token holds one more write-cache page.
//
//ssdx:hotpath
func (c *command) token() {
	c.remaining--
	if c.remaining == 0 {
		c.admitted()
		return
	}
	c.p.writeCache.AcquireWhenFree(c.stepFn)
}

// admitted moves the data once the write cache holds every page. The
// admission wait is the flash drain showing through the finite cache:
// charge it to the NAND stage.
//
//ssdx:hotpath
func (c *command) admitted() {
	c.cmd.Span.Advance(telemetry.StageNAND, c.p.K.Now())
	c.moveToDRAM()
}

// moveToDRAM DMAs the host data across the AHB into the DRAM buffer.
//
//ssdx:hotpath
func (c *command) moveToDRAM() {
	c.stage = stToDRAM
	if err := c.p.hostDMA.Transfer(c.ddrBytes, c.stepFn); err != nil {
		dmaPanic(err)
	}
}

// dmaDone writes the DMAed data into the DRAM buffer.
//
//ssdx:hotpath
func (c *command) dmaDone() {
	c.stage = stLanded
	c.buf.Access(true, c.cmd.Req.LBA*trace.SectorSize, c.ddrBytes, c.stepFn)
}

// landed completes a host+DDR write, or passes the data through the
// channel compressor, whose occupancy sits between DRAM and the channel
// controller.
//
//ssdx:hotpath
func (c *command) landed() {
	p := c.p
	c.cmd.Span.Advance(telemetry.StageDRAM, p.K.Now())
	if c.p.mode == ModeHostDDR {
		p.Host.Complete(c.cmd)
		c.free()
		return
	}
	c.stage = stOccupied
	p.Comp.Occupy(p.K, c.chanBytes, c.stepFn)
}

// occupied completes a cached write at DRAM landing (the caching buffer
// policy), or a write compression absorbed entirely, and issues the page
// programs.
//
//ssdx:hotpath
func (c *command) occupied() {
	p := c.p
	c.remaining = c.flashPages
	if p.Cfg.CachePolicy == "cache" || c.remaining == 0 {
		p.Host.Complete(c.cmd)
	}
	if c.remaining == 0 {
		// Fully absorbed by compression debt.
		c.free()
		return
	}
	c.stage = stPrograms
	for i := 0; i < c.flashPages; i++ {
		if p.mapper != nil {
			p.mapperWrite(c.cmd.Req.LBA, i, &c.cmd.Span, c.stepFn)
		} else {
			p.flashWrite(&c.cmd.Span, c.stepFn)
		}
	}
}

// programmed retires one page program. The command's span rode the
// batched write path page by page, so the controller has already split the
// interval into chan (die queue), bus (ONFI), ecc (encode prep) and nand
// (tPROG).
//
//ssdx:hotpath
func (c *command) programmed() {
	p := c.p
	p.writeCache.Release()
	c.remaining--
	if c.remaining > 0 {
		return
	}
	if p.Cfg.CachePolicy != "cache" {
		p.Host.Complete(c.cmd)
	}
	c.free()
}

// readAfterCPU starts a read: channel read (NAND -> DRAM), ECC decode,
// host DMA out of DRAM, completion (the host interface models the tx
// wire). It issues one flash read per page; in host+DDR mode it reads the
// buffer instead (the DRAM-only path).
//
//ssdx:hotpath
func (c *command) readAfterCPU() {
	p, req := c.p, c.cmd.Req
	c.cmd.Span.Advance(telemetry.StageCPU, p.K.Now())
	if c.p.mode == ModeHostDDR {
		c.remaining = 1
		c.stage = stBufferRead
		p.DRAM.ForChannel(0).Access(false, req.LBA*trace.SectorSize, req.Bytes, c.stepFn)
		return
	}
	c.remaining = c.pages
	c.stage = stPages
	basePage := req.LBA * trace.SectorSize / int64(p.pageBytes)
	for i := 0; i < c.pages; i++ {
		var gdie int
		var addr nand.Addr
		mapped := false
		if p.mapper != nil {
			gdie, addr, mapped = p.mapperRead(req.LBA, i)
			if !mapped {
				// Unwritten/trimmed page: the real FTL answers from the
				// map without touching flash (zero-fill read).
				c.send(int64(p.pageBytes))
				continue
			}
		}
		if !mapped {
			gdie, addr = p.readAddr(basePage + int64(i))
		}
		p.readPage(gdie, addr, req.LBA, &c.cmd.Span, false, c.stepFn)
	}
}

// pageRead DMAs one decoded page to the host interface.
//
//ssdx:hotpath
func (c *command) pageRead() {
	c.cmd.Span.Advance(telemetry.StageECC, c.p.K.Now())
	c.send(int64(c.p.pageBytes))
}

// send DMAs n bytes of read data out of DRAM.
//
//ssdx:hotpath
func (c *command) send(n int64) {
	if err := c.p.hostDMA.Transfer(n, c.sentFn); err != nil {
		dmaPanic(err)
	}
}

// pageSent completes the read once its last page has left DRAM.
//
//ssdx:hotpath
func (c *command) pageSent() {
	c.cmd.Span.Advance(telemetry.StageDRAM, c.p.K.Now())
	c.remaining--
	if c.remaining == 0 {
		c.p.Host.Complete(c.cmd)
		c.free()
	}
}

// dmaPanic reports a failed host DMA off the hot path.
func dmaPanic(err error) {
	panic(fmt.Sprintf("core: host DMA failed: %v", err))
}

// preloadOnFirstTouch marks a read's target page as data written before
// the run started (the drive the paper's read columns measure already holds
// its data). Preloading a programmed page is a no-op, so every read may
// call it. It must run on the channel that owns the die, so die state is
// never inspected hub-side mid-run; Preload consumes no simulated time. The
// mapper FTL answers reads from its own map and never preloads.
func (p *Platform) preloadOnFirstTouch(ch, die int, addr nand.Addr, lba int64) {
	if p.mapper != nil {
		return
	}
	if err := p.Channels[ch].Die(die).Preload(addr); err != nil {
		panic(fmt.Sprintf("core: preload of LBA %d failed (ch %d die %d plane %d block %d page %d): %v",
			lba, ch, die, addr.Plane, addr.Block, addr.Page, err))
	}
}

// runDrain measures the DDR+FLASH column: data is already in the DRAM
// buffers; measure how fast the flash subsystem drains it (writes) or fills
// it (reads). A bounded in-flight window keeps the event queue small while
// saturating every die.
func (p *Platform) runDrain(w workload.Spec) (Result, error) {
	totalPages := int(w.TotalBytes() / int64(p.pageBytes))
	if totalPages < 1 {
		totalPages = 1
	}
	window := 4 * p.totalDies * p.planeBatch
	if window > totalPages {
		window = totalPages
	}
	issued, completed := 0, 0
	var pump func()
	onDone := func() {
		completed++
		pump()
	}
	inFlight := func() int { return issued - completed }
	pump = func() {
		for issued < totalPages && inFlight() < window {
			issued++
			if w.Pattern.IsWrite() {
				p.flashWrite(nil, onDone)
			} else {
				page := int64(issued - 1)
				gdie, addr := p.readAddr(page)
				p.readPage(gdie, addr, page*int64(p.pageBytes)/trace.SectorSize, nil, false, onDone)
			}
		}
		if issued == totalPages {
			p.flushPartialBatches()
		}
	}
	p.K.Schedule(0, pump)
	p.runKernel()
	if completed != totalPages {
		return Result{}, fmt.Errorf("%w (drain: %d of %d pages)", errStalled, completed, totalPages)
	}
	bytes := int64(totalPages) * int64(p.pageBytes)
	mbps := 0.0
	if now := p.simNow(); now > 0 {
		mbps = float64(bytes) / now.Seconds() / 1e6
	}
	return Result{MBps: mbps, BytesMoved: bytes, Completed: uint64(completed)}, nil
}
