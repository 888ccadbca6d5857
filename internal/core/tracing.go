package core

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/dram"
	"repro/internal/sim"
	evtrace "repro/internal/telemetry/trace"
)

// EnableTracing attaches a device-wide event tracer to a built platform:
// every modeled resource — NAND dies, ONFI buses, DRAM buffers, ECC
// engines, CPU cores, AHB layers, host links and (once a multi-queue run
// starts) per-tenant submission queues — registers a trace track, and the
// run's Result carries the aggregated utilization report. Call between
// Build and the run; the returned tracer can export a Perfetto trace after
// the run. Tracing off (never calling this) costs the hot path nothing but
// nil-checks.
func (p *Platform) EnableTracing(opt evtrace.Options) *evtrace.Tracer {
	if p.tracer != nil {
		return p.tracer
	}
	tr := evtrace.New(opt)
	p.tracer = tr

	// Host links and submission queues.
	p.Host.SetTracer(tr)

	traceServers(tr, evtrace.KindCPU, p.CPU.Cores())
	traceBus(tr, p.Bus, func(layer int) string { return fmt.Sprintf("ahb%d", layer) })
	for _, b := range p.DRAM.Buffers {
		traceDRAM(tr, b)
	}
	traceServers(tr, evtrace.KindECC, p.ecc.engines)

	// Channels: dies (per-op-kind intervals, GC split, flow steps) and ONFI
	// buses, plus, on the sharded core, each shard's private interconnect,
	// DRAM buffer and ECC engines. runKernel orders the sharded core's event
	// log by start time after each run.
	for c, ch := range p.Channels {
		ch.SetTracer(tr)
		if p.ds != nil {
			traceBus(tr, p.shardBuses[c], func(int) string { return fmt.Sprintf("ch%d-ahb", c) })
			traceDRAM(tr, p.shardDRAM[c])
			traceServers(tr, evtrace.KindECC, p.shardECC[c].engines)
		}
	}
	return tr
}

// traceServers registers one track per server (CPU cores, ECC engines) and
// records each service window into rec.
func traceServers(rec *evtrace.Tracer, kind evtrace.Kind, servers []*sim.Server) {
	for _, srv := range servers {
		res := rec.Register(kind, srv.Name())
		srv.OnServe = func(start, end sim.Time) {
			rec.Interval(res, evtrace.OpBusy, start, end)
		}
	}
}

// traceBus registers one AHB track per bus layer, named by name, and
// records each grant into rec.
func traceBus(rec *evtrace.Tracer, bus *amba.Bus, name func(layer int) string) {
	res := make([]int32, bus.Config().Layers)
	for i := range res {
		res[i] = rec.Register(evtrace.KindAHB, name(i))
	}
	bus.OnGrant = func(layer int, start, end sim.Time) {
		rec.Interval(res[layer], evtrace.OpXfer, start, end)
	}
}

// traceDRAM registers a DRAM buffer's track and records each access
// window into rec.
func traceDRAM(rec *evtrace.Tracer, b *dram.Buffer) {
	res := rec.Register(evtrace.KindDRAM, fmt.Sprintf("ddr%d", b.ID))
	b.OnServe = func(write bool, start, end sim.Time) {
		op := evtrace.OpRead
		if write {
			op = evtrace.OpWrite
		}
		rec.Interval(res, op, start, end)
	}
}

// utilizationReport folds the tracer's aggregates into a report at the
// kernel's current time, stamping the simulator self-profile. wallSeconds
// may be zero (deterministic contexts leave wall-clock fields unset).
func (p *Platform) utilizationReport(wallSeconds float64) *evtrace.Report {
	if p.tracer == nil {
		return nil
	}
	rep := p.tracer.Report(p.simNow())
	rep.Profile.KernelEvents = p.kernelEvents()
	if wallSeconds > 0 {
		rep.Profile.WallSeconds = wallSeconds
		rep.Profile.EventsPerSec = float64(p.kernelEvents()) / wallSeconds
		rep.Profile.SimNSPerWallMS = rep.SimNS / (wallSeconds * 1e3)
	}
	return rep
}
