package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry/metrics"
)

// EnableMetrics binds a live metrics registry to the platform before a run.
// It is the runtime-observability counterpart of EnableTracing: where the
// tracer records what each modeled resource did over simulated time, the
// registry exports what the simulation process is doing in wall-clock time —
// event throughput, window-barrier cadence and per-worker busy/idle on the
// parallel core, plus per-tenant SQ depth, which the host interface
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
	}
	for w := 0; w < p.ds.Workers(); w++ {
		m.WorkerBusyNS = append(m.WorkerBusyNS, reg.Counter(
			fmt.Sprintf("ssdx_sim_worker_busy_ns_total{worker=%q}", fmt.Sprint(w)),
			"wall-clock nanoseconds each parallel worker spent executing domain windows"))
		m.WorkerIdleNS = append(m.WorkerIdleNS, reg.Counter(
			fmt.Sprintf("ssdx_sim_worker_idle_ns_total{worker=%q}", fmt.Sprint(w)),
			"wall-clock nanoseconds each parallel worker spent waiting for window work"))
	}
	p.ds.SetMetrics(m)
}
