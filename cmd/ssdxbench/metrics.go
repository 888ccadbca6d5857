package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported on every
// workload by the untraced run. BENCHMARK.json repeats this table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the -layers metrics every workload reports. Each one times or
// counts one layer from the outside; the README says which end-to-end metric
// each should move, and on which workload. BENCHMARK.json repeats this table.
var perLayer = []metricDef{
	{Name: "setup.build_s", Unit: "s", Better: "lower"},
	{Name: "setup.live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "workload.gen_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "hostif.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "dram.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "device.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "flash.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "ftl.mapper_write_ns", Unit: "ns", Better: "lower"},
	{Name: "ftl.waf", Unit: "ratio", Better: "lower"},
	{Name: "ftl.gc_copies_per_req", Unit: "count", Better: "lower"},
	{Name: "nand.programs_per_req", Unit: "count", Better: "lower"},
	{Name: "nand.reads_per_req", Unit: "count", Better: "lower"},
	{Name: "nand.erases_per_req", Unit: "count", Better: "lower"},
	{Name: "hostif.queue_peak", Unit: "count", Better: "lower"},
	{Name: "domains.windows_per_req", Unit: "count", Better: "lower"},
	{Name: "domains.msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "domains.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "domains.speedup_w2_vs_w1", Unit: "ratio", Better: "higher"},
	{Name: "telemetry.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.metrics_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "dse.build_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// extraLayer are -layers metrics that are printed but stay out of the JSON
// result line. All but domains.w1_req_per_s exist on one workload only.
var extraLayer = []metricDef{
	{Name: "dse.eval_s_p50", Unit: "s", Better: "lower"},
	{Name: "dse.eval_s_p75", Unit: "s", Better: "lower"},
	{Name: "dse.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "dse.pareto_ms", Unit: "ms", Better: "lower"},
	{Name: "nvme.pick_ns", Unit: "ns", Better: "lower"},
	{Name: "hostif.saturated_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "domains.w1_req_per_s", Unit: "1/s", Better: "higher"},
}

// failFrac is the share of runs that errored or produced a wrong result. It
// is printed beside the end-to-end metrics and carried in the JSON result's
// attempted/failed counts; any increase is a regression.
var failFrac = metricDef{Name: "fail_frac", Unit: "ratio", Better: "lower"}

func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer, extraLayer, {failFrac}} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// quartiles returns the first quartile, median and third quartile of xs,
// using the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
