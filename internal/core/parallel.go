package core

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/ctrl"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file holds the helpers that make the serial and the sharded event
// core one data path. With Parallel set, the platform shards into
// 1+Channels clock domains — the hub (host interface, CPU complex,
// compressor, staging DRAM, the whole FTL brain and the hub ECC pool) plus
// one domain per ONFI channel (its dies, buses, SRAM cache gate, a private
// PP-DMA interconnect, DRAM buffer and ECC pool). Cross-domain interactions
// become timestamped messages carrying the configured hand-off latency,
// which doubles as the conservative lookahead the domain coordinator
// synchronizes on. Serial mode (Parallel off) keeps the monolithic kernel:
// it is the degenerate case in which every hop below is a direct call and
// every channel is served by the hub's resources.
//
// The one-path rule: data-path code is written once. Every hub↔channel hop
// goes through cross/toShard/hubFn and every ECC charge through eccFor; no
// data-path code outside this file branches on p.ds. Flash ops leave the hub
// only through the dispatch helpers erase, program and readPage (platform.go),
// which both FTL modes share. The sharded core runs its domains one after
// another on the calling goroutine and is slower than the serial core on
// every workload; it stays only until the benchmark stops pinning it.

// handoff is the cross-domain hand-off latency and the coordinator's
// lookahead. 1us is comfortably below NAND array times (hundreds of us) so
// it does not distort channel behaviour, yet wide enough to give windows
// real batches of events.
const handoff = 1000 * sim.Nanosecond

// eccPool is a round-robin ECC engine pool bound to one kernel. The hub and
// every shard own one so encode/decode latency is charged on the domain where
// the data lives, without cross-domain contention on a shared server.
type eccPool struct {
	k       *sim.Kernel
	engines []*sim.Server
	next    int
}

// newECCPool builds the configured number of engines on kernel k (none with
// ECC scheme "none"), named prefix+"ecc<i>".
func (p *Platform) newECCPool(k *sim.Kernel, prefix string) *eccPool {
	pool := &eccPool{k: k}
	if p.scheme != nil {
		for i := 0; i < p.Cfg.ECCEngines; i++ {
			pool.engines = append(pool.engines, sim.NewServer(k, nil, fmt.Sprintf("%secc%d", prefix, i)))
		}
	}
	return pool
}

// run charges lat on the next engine and continues with done; with no
// engines (ECC scheme "none") it degenerates to a zero-delay schedule.
//
//ssdx:hotpath
func (ep *eccPool) run(lat sim.Time, done func()) {
	if len(ep.engines) == 0 {
		ep.k.Schedule(0, done)
		return
	}
	e := ep.engines[ep.next]
	ep.next = (ep.next + 1) % len(ep.engines)
	e.Acquire(lat, done)
}

// eccFor returns the ECC pool that serves channel ch: the hub pool on the
// serial core, the channel domain's own pool on the sharded core.
func (p *Platform) eccFor(ch int) *eccPool {
	if p.ds == nil {
		return p.ecc
	}
	return p.shardECC[ch]
}

// buildChannels assembles every channel controller on the resources it runs
// on. The serial core gives each channel the hub kernel, the shared AHB and
// the pool's DRAM buffer. The sharded core gives each a clock domain of its
// own — shard kernel, private one-layer PP-DMA interconnect, DRAM buffer and
// ECC pool — plus the span sink that routes stage attribution back to the
// hub.
func (p *Platform) buildChannels(gang ctrl.GangMode) error {
	cfg := p.Cfg
	for c := 0; c < cfg.Channels; c++ {
		k, bus, buf := p.K, p.Bus, p.DRAM.ForChannel(c)
		if p.ds != nil {
			k = p.ds.Domain(c + 1).K
			sbCfg := amba.DefaultConfig()
			sbCfg.Layers = 1
			var err error
			if bus, err = amba.NewBus(k, sbCfg); err != nil {
				return err
			}
			if buf, err = dram.New(k, c+1, dram.DDR2_800x16(64<<20)); err != nil {
				return err
			}
			p.shardBuses = append(p.shardBuses, bus)
			p.shardDRAM = append(p.shardDRAM, buf)
			p.shardECC = append(p.shardECC, p.newECCPool(k, fmt.Sprintf("ch%d-", c)))
		}
		m, err := bus.AttachMaster(fmt.Sprintf("ppdma%d", c))
		if err != nil {
			return err
		}
		ch, err := ctrl.New(k, c, ctrl.Config{
			Ways:       cfg.Ways,
			DiesPerWay: cfg.DiesPerWay,
			Gang:       gang,
		}, &p.geo, &p.tim, m, buf, p.rng.Fork(uint64(c+101)))
		if err != nil {
			return err
		}
		if cfg.Wear > 0 {
			ch.SetWear(cfg.Wear)
		}
		if p.ds != nil {
			// Spans belong to the hub (host commands mutate them there);
			// stage advances observed on the shard hop home as messages.
			// Advance is a monotonic watermark per stage, so the barrier's
			// deterministic merge order makes the application order
			// well-defined.
			shard, hub := p.ds.Domain(c+1), p.ds.Domain(0)
			ch.SetSpanSink(func(sp *telemetry.Span, st telemetry.Stage, at sim.Time) {
				shard.Post(hub, handoff, func() { sp.Advance(st, at) })
			})
		}
		p.Channels = append(p.Channels, ch)
	}
	return nil
}

// domainOf maps the platform's crossing convention — -1 for the hub,
// otherwise a channel index — to the clock domain.
func (p *Platform) domainOf(idx int) *sim.Domain {
	if idx < 0 {
		return p.ds.Domain(0)
	}
	return p.ds.Domain(idx + 1)
}

// cross runs fn on domain `to`, posted from domain `from` with the modeled
// hand-off latency (-1 designates the hub). With the domain core off, or
// within one domain, it is a direct call.
func (p *Platform) cross(from, to int, fn func()) {
	if p.ds == nil || from == to {
		fn()
		return
	}
	p.domainOf(from).Post(p.domainOf(to), handoff, fn)
}

// crossFn wraps fn so that invoking the wrapper on domain `from` delivers fn
// on domain `to`. nil stays nil so optional callbacks pass through.
func (p *Platform) crossFn(from, to int, fn func()) func() {
	if p.ds == nil || fn == nil {
		return fn
	}
	return func() { p.cross(from, to, fn) }
}

// toShard posts fn from the hub onto channel ch's domain.
func (p *Platform) toShard(ch int, fn func()) { p.cross(-1, ch, fn) }

// hubFn wraps a hub-side continuation for invocation on channel ch's domain.
func (p *Platform) hubFn(ch int, fn func()) func() { return p.crossFn(ch, -1, fn) }

// runKernel drives the event core to completion: the monolithic kernel in
// serial mode, the domain coordinator in parallel mode. The coordinator runs
// each domain's window in turn, so after a domain run the trace's event log
// is sorted by start time into one device-wide stream.
func (p *Platform) runKernel() {
	if p.ds == nil {
		p.K.RunAll()
		return
	}
	p.ds.Run()
	p.tracer.SortEvents()
}

// kernelEvents counts delivered events across every domain.
func (p *Platform) kernelEvents() uint64 {
	if p.ds != nil {
		return p.ds.Executed()
	}
	return p.K.Executed
}

// simNow is the set-wide simulated time (the hub kernel's clock in serial
// mode).
func (p *Platform) simNow() sim.Time {
	if p.ds != nil {
		return p.ds.Now()
	}
	return p.K.Now()
}

// busUtilization aggregates interconnect utilization — the hub AHB alone in
// serial mode, layer-weighted across the hub and shard buses in parallel
// mode (each shard bus models the PP-DMA layer the monolith would dedicate
// to that channel under per-channel layering).
func (p *Platform) busUtilization(now sim.Time) float64 {
	if p.ds == nil {
		return p.Bus.Utilization(now)
	}
	layers := p.Bus.Config().Layers
	total := p.Bus.Utilization(now) * float64(layers)
	for _, b := range p.shardBuses {
		n := b.Config().Layers
		total += b.Utilization(now) * float64(n)
		layers += n
	}
	return total / float64(layers)
}
