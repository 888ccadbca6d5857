package core

import (
	"repro/internal/sim"
	"repro/internal/telemetry/metrics"
)

// EnableMetrics binds a live metrics registry to the platform before a run.
// It is the runtime-observability counterpart of EnableTracing: where the
// tracer records what each modeled resource did over simulated time, the
// registry exports what the simulation process is doing in wall-clock time —
// event throughput, window-barrier cadence and busy/idle wall time on the
// sharded core, plus per-tenant SQ depth, which the host interface
// registers when RunTenants starts its queues. A nil registry is a no-op and
// leaves every hook nil, so the hot paths keep their single pointer test.
// Metrics never feed back into simulated time: a fixed seed produces
// byte-identical Results with metrics on or off.
func (p *Platform) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.Host.SetMetrics(reg)
	events := reg.Counter("ssdx_sim_events_total", "simulation events executed across all kernels")
	if p.ds == nil {
		p.K.Events = events
		return
	}
	m := &sim.DomainMetrics{
		Events:   events,
		Windows:  reg.Counter("ssdx_sim_windows_total", "conservative lookahead windows completed"),
		Messages: reg.Counter("ssdx_sim_messages_total", "cross-domain messages delivered at window barriers"),
		WindowMessages: reg.Histogram("ssdx_sim_window_messages",
			"cross-domain messages merged per window barrier", metrics.ExpBuckets(1, 2, 12)),
		// One pair under the worker="0" series names that ssdxbench's
		// domains.worker_busy_frac reads as busy/(busy+idle).
		BusyNS: reg.Counter(`ssdx_sim_worker_busy_ns_total{worker="0"}`,
			"wall-clock nanoseconds the sharded core spent executing domain windows"),
		IdleNS: reg.Counter(`ssdx_sim_worker_idle_ns_total{worker="0"}`,
			"wall-clock nanoseconds the sharded core spent coordinating windows"),
	}
	p.ds.SetMetrics(m)
}
