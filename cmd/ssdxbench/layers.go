package main

import (
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/telemetry/metrics"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

const mib = 1 << 20

// timedRun builds a fresh platform for cfg, lets instrument attach hooks,
// and times one run in the given mode. Build is not part of the time.
func timedRun(r singleRun, mode core.Mode, rec *recorder, span string, instrument func(*core.Platform)) (core.Result, float64, error) {
	p, err := core.Build(r.cfg)
	if err != nil {
		return core.Result{}, 0, err
	}
	if instrument != nil {
		instrument(p)
	}
	runtime.GC() // the same heap state as the end-to-end samples
	end := rec.begin(span, "ladder", "layers")
	t0 := time.Now()
	res, err := r.run(p, mode)
	wall := time.Since(t0).Seconds()
	end()
	if err != nil {
		return res, 0, fmt.Errorf("%s: %w", span, err)
	}
	if err := checkCompleted(res, r.requests()); err != nil {
		return res, 0, fmt.Errorf("%s: %w", span, err)
	}
	return res, wall, nil
}

// drainRequests pulls every request the inputs generate, without a
// platform: each stream's Generator, or a compiled tenant set's queues in
// turn.
func drainRequests(r singleRun, fn func(trace.Request)) (int, error) {
	n := 0
	if r.tenants == nil {
		gen, err := r.spec.Generator()
		if err != nil {
			return 0, err
		}
		if c, ok := gen.(io.Closer); ok {
			defer c.Close()
		}
		for req, ok := gen.Next(); ok; req, ok = gen.Next() {
			n++
			if fn != nil {
				fn(req)
			}
		}
		return n, nil
	}
	q, err := r.tenants.Compile()
	if err != nil {
		return 0, err
	}
	defer q.Close()
	live := q.NumQueues()
	done := make([]bool, live)
	for live > 0 {
		for i := range done {
			if done[i] {
				continue
			}
			req, ok := q.Next(i)
			if !ok {
				done[i] = true
				live--
				continue
			}
			n++
			if fn != nil {
				fn(req)
			}
		}
	}
	return n, q.Err()
}

// runtimeCounters reads the Go runtime's allocation and CPU-class totals.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	runtime.GC() // the CPU-class totals are brought up to date at a GC
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// sumSeries adds every snapshot series whose name starts with prefix.
func sumSeries(snap map[string]float64, prefix string) float64 {
	var v float64
	for k, x := range snap {
		if strings.HasPrefix(k, prefix) {
			v += x
		}
	}
	return v
}

// layersSingle takes one platform run apart layer by layer.
func layersSingle(r singleRun, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	reqs := float64(r.requests())

	// Workload generation alone.
	end := rec.begin("generator drain", "workload", "layers")
	t0 := time.Now()
	n, err := drainRequests(r, nil)
	genNS := float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	end()
	if err != nil {
		return nil, fmt.Errorf("generator drain: %w", err)
	}
	m["workload.gen_ns_per_req"] = genNS

	// Set-up, then the full-SSD run with the runtime's counters around it.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc
	end = rec.begin("core.Build", "setup", "layers")
	t0 = time.Now()
	p, err := core.Build(r.cfg)
	build := time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m["setup.build_s"] = build
	m["setup.live_heap_mb"] = (float64(ms.HeapAlloc) - float64(heapBefore)) / mib
	alloc0, gc0, cpu0 := runtimeCounters()
	end = rec.begin("rung ssd", "ladder", "layers")
	t0 = time.Now()
	res, err := r.run(p, core.ModeFull)
	full := time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	if err := checkCompleted(res, r.requests()); err != nil {
		return nil, err
	}
	alloc1, gc1, cpu1 := runtimeCounters()
	m["runtime.alloc_bytes_per_req"] = (alloc1 - alloc0) / reqs
	m["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	m["sim.events_per_req"] = float64(res.Events) / reqs
	m["sim.ns_per_event"] = full * 1e9 / float64(res.Events)
	m["sim.events_per_s"] = float64(res.Events) / full
	m["ftl.waf"] = res.WAF
	m["ftl.gc_copies_per_req"] = float64(res.GCCopies) / reqs
	m["nand.programs_per_req"] = float64(res.FlashWrites) / reqs
	m["nand.reads_per_req"] = float64(res.FlashReads) / reqs
	m["nand.erases_per_req"] = float64(res.Erases) / reqs
	m["hostif.queue_peak"] = float64(res.HostQueuePeak)
	m["dse.build_frac"] = build / (build + full)

	// The mode ladder: each rung adds one layer to the previous one.
	_, ideal, err := timedRun(r, core.ModeHostIdeal, rec, "rung host-ideal", nil)
	if err != nil {
		return nil, err
	}
	_, ddr, err := timedRun(r, core.ModeHostDDR, rec, "rung host+ddr", nil)
	if err != nil {
		return nil, err
	}
	drain := singleRun{cfg: r.cfg, spec: r.drainSpec()}
	_, flash, err := timedRun(drain, core.ModeDDRFlash, rec, "rung ddr+flash", nil)
	if err != nil {
		return nil, err
	}
	m["hostif.ns_per_req"] = ideal*1e9/reqs - genNS
	m["dram.ns_per_req"] = (ddr - ideal) * 1e9 / reqs
	m["device.ns_per_req"] = (full - ddr) * 1e9 / reqs
	m["flash.ns_per_req"] = flash * 1e9 / reqs

	// Observability switched on, one hook system at a time.
	_, traced, err := timedRun(r, core.ModeFull, rec, "ssd with EnableTracing", func(p *core.Platform) {
		p.EnableTracing(evtrace.Options{})
	})
	if err != nil {
		return nil, err
	}
	_, metered, err := timedRun(r, core.ModeFull, rec, "ssd with EnableMetrics", func(p *core.Platform) {
		p.EnableMetrics(metrics.NewRegistry())
	})
	if err != nil {
		return nil, err
	}
	_, quiet, err := timedRun(r, core.ModeFull, nil, "", nil)
	if err != nil {
		return nil, err
	}
	m["telemetry.trace_overhead_frac"] = traced/full - 1
	m["telemetry.metrics_overhead_frac"] = metered/full - 1
	m["bench.trace_overhead_frac"] = full/quiet - 1

	// The sharded core on the same inputs, at two workers and at one.
	var walls [3]float64
	for _, workers := range []int{2, 1} {
		pr := r
		pr.cfg.Parallel = true
		pr.cfg.ParallelWorkers = workers
		reg := metrics.NewRegistry()
		_, wall, err := timedRun(pr, core.ModeFull, rec, fmt.Sprintf("ssd parallel w%d", workers), func(p *core.Platform) {
			p.EnableMetrics(reg)
		})
		if err != nil {
			return nil, err
		}
		walls[workers] = wall
		if workers == 2 {
			snap := reg.Snapshot()
			busy := sumSeries(snap, "ssdx_sim_worker_busy_ns_total")
			idle := sumSeries(snap, "ssdx_sim_worker_idle_ns_total")
			m["domains.windows_per_req"] = snap["ssdx_sim_windows_total"] / reqs
			m["domains.msgs_per_req"] = snap["ssdx_sim_messages_total"] / reqs
			m["domains.worker_busy_frac"] = busy / (busy + idle)
		}
	}
	m["domains.speedup_w2_vs_w1"] = walls[1] / walls[2]
	m["domains.w1_req_per_s"] = reqs / walls[1]

	if m["ftl.mapper_write_ns"], err = mapperWriteNS(r, rec); err != nil {
		return nil, err
	}
	if r.tenants != nil {
		if err := tenantExtras(r, m, rec); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mapperWriteNS replays the inputs' written pages through a standalone
// page-mapped FTL with one unit per plane of the platform, and returns the
// mean time of one Mapper.Write. Platforms that run the WAF abstraction get
// the vertex-zipf-mapper FTL settings (8 blocks per unit, 30 % spare).
func mapperWriteNS(r singleRun, rec *recorder) (float64, error) {
	geo := nand.DefaultGeometry()
	blocks, spare := r.cfg.MapperBlocksPerUnit, r.cfg.SpareFactor
	if r.cfg.FTLMode != "mapper" {
		blocks, spare = 8, 0.3
	}
	if blocks <= 0 {
		blocks = geo.BlocksPerPlane
	}
	g := ftl.Geometry{Units: r.cfg.TotalDies() * geo.PlanesPerDie, BlocksPerUnit: blocks, PagesPerBlock: geo.PagesPerBlock}
	logical := int64(float64(g.TotalPages()) * (1 - spare))
	var lpns []int64
	if _, err := drainRequests(r, func(req trace.Request) {
		if req.Op != trace.OpWrite {
			return
		}
		first := req.LBA * trace.SectorSize / int64(geo.PageBytes)
		for i := int64(0); i*int64(geo.PageBytes) < req.Bytes; i++ {
			lpns = append(lpns, (first+i)%logical)
		}
	}); err != nil {
		return 0, err
	}
	if len(lpns) == 0 {
		return 0, fmt.Errorf("mapper replay: the inputs write nothing")
	}
	mp, err := ftl.NewMapper(g, logical)
	if err != nil {
		return 0, err
	}
	end := rec.begin("ftl.Mapper.Write replay", "ftl", "layers")
	t0 := time.Now()
	for _, lpn := range lpns {
		if _, err := mp.Write(lpn); err != nil {
			return 0, err
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(lpns))
	end()
	return ns, nil
}

// tenantExtras measures the multi-queue front end: the arbiter's Pick on a
// compiled queue set, and the host path with the aggressor past saturation.
func tenantExtras(r singleRun, m map[string]float64, rec *recorder) error {
	q, err := r.tenants.Compile()
	if err != nil {
		return err
	}
	ready := make([]int, q.NumQueues())
	for i := range ready {
		ready[i] = i
	}
	const picks = 1 << 20
	sink := 0
	end := rec.begin("nvme.Queues.Pick", "nvme", "layers")
	t0 := time.Now()
	for i := 0; i < picks; i++ {
		sink += q.Pick(ready)
	}
	m["nvme.pick_ns"] = float64(time.Since(t0).Nanoseconds()) / picks
	end()
	q.Close()
	if sink < 0 {
		return fmt.Errorf("impossible pick sum %d", sink)
	}

	// The same scenario with the aggressor at 50k IOPS, past what the device
	// serves: the arrival backlog grows for the whole run.
	sat := *r.tenants
	sat.Tenants = slices.Clone(sat.Tenants)
	for i := range sat.Tenants {
		if sat.Tenants[i].Workload.Arrival.Kind == workload.ArrivalPoisson {
			sat.Tenants[i].Workload.Arrival.RateIOPS = 50000
		}
	}
	res, wall, err := timedRun(singleRun{cfg: r.cfg, tenants: &sat}, core.ModeFull, rec, "ssd saturated", nil)
	if err != nil {
		return err
	}
	m["hostif.saturated_ns_per_event"] = wall * 1e9 / float64(res.Events)
	return nil
}

// layersSweep times the sweep point by point, then takes its representative
// point apart like a single workload.
func layersSweep(pts []dse.Point, rec *recorder) (map[string]float64, error) {
	sr, err := runSweep(pts, rec)
	if err != nil {
		return nil, err
	}
	evalS := make([]float64, len(pts))
	var build, busy float64
	for i := range pts {
		evalS[i] = sr.te.build[i] + sr.te.run[i]
		build += sr.te.build[i]
		busy += evalS[i]
	}
	_, p50, p75 := quartiles(evalS)
	objs, err := dse.ParseObjectives("mbps,latency,waf")
	if err != nil {
		return nil, err
	}
	end := rec.begin("dse.Front", "dse", "layers")
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		if len(dse.Front(sr.evals, objs)) == 0 {
			return nil, fmt.Errorf("empty Pareto front")
		}
		calls++
	}
	paretoMS := float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(calls)
	end()

	m, err := layersSingle(representative(pts), rec)
	if err != nil {
		return nil, err
	}
	m["dse.eval_s_p50"] = p50
	m["dse.eval_s_p75"] = p75
	m["dse.build_frac"] = build / busy
	m["dse.worker_busy_frac"] = busy / (sweepWorkers * sr.wall)
	m["dse.pareto_ms"] = paretoMS
	return m, nil
}
