package sim

import (
	"testing"

	"repro/internal/telemetry/metrics"
)

// TestKernelEventCounter checks the live counter tracks Executed through
// batched flushes, including the early-return (horizon) exit path.
func TestKernelEventCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	k := NewKernel()
	k.Events = reg.Counter("ev_total", "")
	n := 2*eventFlushBatch + 17
	for i := 0; i < n; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Schedule(Time(n+100), func() {})
	k.Run(Time(n)) // leaves the last event queued: horizon exit must flush
	if got := k.Events.Value(); got != uint64(n) {
		t.Fatalf("counter = %d after horizon exit, want %d", got, n)
	}
	k.RunAll()
	if got, want := k.Events.Value(), k.Executed; got != want {
		t.Fatalf("counter = %d, Executed = %d", got, want)
	}
}

// TestDomainSetMetrics runs a two-domain ping-pong with metrics bound and
// checks windows, messages, events and the busy/idle wall-time split all
// moved — and that the same simulation with metrics off is unchanged (same
// Executed, same final time).
func TestDomainSetMetrics(t *testing.T) {
	run := func(reg *metrics.Registry) (uint64, Time) {
		ds := NewDomainSet(2, 10*Nanosecond)
		if reg != nil {
			ds.SetMetrics(&DomainMetrics{
				Events:         reg.Counter("ssdx_sim_events_total", ""),
				Windows:        reg.Counter("ssdx_sim_windows_total", ""),
				Messages:       reg.Counter("ssdx_sim_messages_total", ""),
				WindowMessages: reg.Histogram("ssdx_sim_window_messages", "", metrics.ExpBuckets(1, 2, 8)),
				BusyNS:         reg.Counter("busy", ""),
				IdleNS:         reg.Counter("idle", ""),
			})
		}
		a, b := ds.Domain(0), ds.Domain(1)
		hops := 0
		var ping func()
		ping = func() {
			if hops++; hops >= 40 {
				return
			}
			src, dst := a, b
			if hops%2 == 0 {
				src, dst = b, a
			}
			src.Post(dst, 10*Nanosecond, ping)
		}
		a.K.Schedule(0, ping)
		end := ds.Run()
		return ds.Executed(), end
	}

	reg := metrics.NewRegistry()
	execOn, endOn := run(reg)
	execOff, endOff := run(nil)
	if execOn != execOff || endOn != endOff {
		t.Fatalf("metrics perturbed the simulation: exec %d vs %d, end %v vs %v",
			execOn, execOff, endOn, endOff)
	}
	snap := reg.Snapshot()
	if snap["ssdx_sim_events_total"] != float64(execOn) {
		t.Fatalf("events counter %v, want %d", snap["ssdx_sim_events_total"], execOn)
	}
	if snap["ssdx_sim_windows_total"] == 0 {
		t.Fatal("no windows counted")
	}
	if snap["ssdx_sim_messages_total"] != 39 {
		t.Fatalf("messages counter %v, want 39 cross-domain hops", snap["ssdx_sim_messages_total"])
	}
	if snap["ssdx_sim_window_messages_count"] != snap["ssdx_sim_windows_total"] {
		t.Fatalf("per-window histogram count %v != windows %v",
			snap["ssdx_sim_window_messages_count"], snap["ssdx_sim_windows_total"])
	}
	// The wall-time split must be usable as a fraction: busy/(busy+idle)
	// is undefined when both are zero.
	if snap["busy"]+snap["idle"] == 0 {
		t.Fatal("busy and idle wall time both zero")
	}
}
