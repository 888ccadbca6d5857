package main

import (
	"fmt"
	"math"

	ssdx "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/nvme"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchWorkload is one named input set. Exactly one of single and sweep is
// set: a single workload is one platform running one request stream (or one
// tenant set); a sweep is a list of design points evaluated by dse.Runner.
type benchWorkload struct {
	name string
	why  string
	// layerScale shrinks the request counts of the -layers pass, which runs
	// the workload's inputs about nine times over; it keeps that pass near
	// the time one end-to-end sample takes.
	layerScale float64
	single     func(seed uint64, scale float64) singleRun
	sweep      func(seed uint64, scale float64) []dse.Point
}

// singleRun is the input of one platform run: a configuration plus either a
// single-stream workload or a multi-queue tenant set.
type singleRun struct {
	cfg     config.Platform
	spec    workload.Spec
	tenants *nvme.TenantSet
}

// run executes the inputs on a built platform in the given mode.
func (r singleRun) run(p *core.Platform, mode core.Mode) (core.Result, error) {
	if r.tenants != nil {
		return p.RunTenants(*r.tenants, mode)
	}
	return p.Run(r.spec, mode)
}

// requests is the number of host commands the inputs issue.
func (r singleRun) requests() int {
	if r.tenants != nil {
		return r.tenants.TotalRequests()
	}
	return r.spec.TotalRequests()
}

// drainSpec is the plain sequential-write stream of the same request count
// and block size. The DDR+FLASH drain mode measures only such streams, so the
// flash rung of the layer ladder drains this equivalent volume.
func (r singleRun) drainSpec() workload.Spec {
	block := r.spec.BlockSize
	if r.tenants != nil {
		block = r.tenants.Tenants[0].Workload.BlockSize
	}
	return workload.Spec{Pattern: trace.SeqWrite, BlockSize: block, SpanBytes: 1 << 30,
		Requests: r.requests(), Seed: r.cfg.Seed}
}

// scaled shrinks a request count, keeping at least one request.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// c8SeqWrite is Fig. 6's largest point: Table III C8 (8192 dies, 32
// channels) under 4 KB sequential writes.
func c8SeqWrite(seed uint64, scale float64, workers int) singleRun {
	cfg, err := config.Preset("t3:C8")
	if err != nil {
		panic(err)
	}
	cfg.Seed = seed
	if workers > 0 {
		cfg.Parallel = true
		cfg.ParallelWorkers = workers
	}
	return singleRun{cfg: cfg, spec: workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 30,
		Requests: scaled(200000, scale), Seed: seed,
	}}
}

// tenantSet builds the nvme-tenants-wrr scenario with the aggressor at the
// given Poisson rate.
func tenantSet(seed uint64, scale float64, noisyIOPS int) singleRun {
	cfg := config.Default()
	cfg.HostIF = "pcie-g2x8"
	cfg.Seed = seed
	spec := fmt.Sprintf("victim@high:%dxRR | noisy*4:%dxSW,arrival=poisson:%d",
		scaled(20000, scale), scaled(80000, scale), noisyIOPS)
	set, err := nvme.ParseTenants(spec, workload.Spec{BlockSize: 4096, SpanBytes: 1 << 28, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("ssdxbench: tenant spec %q: %v", spec, err))
	}
	set.Policy = nvme.PolicyWRR
	return singleRun{cfg: cfg, tenants: &set}
}

// sweepPoints is the paper's headline workflow: the Table II design points
// on PCIe, under the sequential and mixed shapes of the Fig. 3/4 harness, in
// the host-ideal and full-SSD columns.
func sweepPoints(seed uint64, scale float64) []dse.Point {
	var pts []dse.Point
	for _, cfg := range config.TableII() {
		cfg.HostIF = "pcie-g2x8"
		cfg.Seed = seed
		for _, shape := range []string{"sw", "mixed"} {
			w, _, err := ssdx.ShapeWorkload(shape)
			if err != nil {
				panic(err)
			}
			w.Requests = scaled(6000, scale)
			w.Seed = seed
			for _, mode := range []core.Mode{core.ModeHostIdeal, core.ModeFull} {
				pts = append(pts, dse.Point{Index: int64(len(pts)), Config: cfg, Workload: w, Mode: mode})
			}
		}
	}
	return pts
}

// representative is the sweep point the -layers pass takes apart: the
// largest Table II topology (C10) under the mixed shape in the full column.
func representative(pts []dse.Point) singleRun {
	for _, pt := range pts {
		if pt.Config.Name == "C10" && pt.Mode == core.ModeFull && pt.Workload.WriteFrac > 0 {
			return singleRun{cfg: pt.Config, spec: pt.Workload}
		}
	}
	panic("ssdxbench: sweep has no C10 mixed full point")
}

// workloads is the benchmark's workload table. The names are stable: other
// documents cite them.
var workloads = []benchWorkload{
	{
		name:       "t3c8-seqwrite",
		why:        "Fig. 6's largest point (8192 dies): stresses set-up, the kernel and ctrl/NAND fan-out; WAF 1 bypasses the FTL",
		layerScale: 0.25,
		single:     func(seed uint64, scale float64) singleRun { return c8SeqWrite(seed, scale, 0) },
	},
	{
		name:       "t3c8-seqwrite-par2",
		why:        "the same inputs on the sharded core with 2 workers: the only workload where sim.DomainSet does the work",
		layerScale: 0.25,
		single:     func(seed uint64, scale float64) singleRun { return c8SeqWrite(seed, scale, 2) },
	},
	{
		name:       "vertex-zipf-mapper",
		why:        "the real page-mapped FTL with garbage collection under zipf 70/30 traffic on a small topology, so set-up is negligible",
		layerScale: 0.5,
		single: func(seed uint64, scale float64) singleRun {
			cfg := config.Vertex()
			cfg.FTLMode = "mapper"
			cfg.MapperBlocksPerUnit = 8
			cfg.SpareFactor = 0.3
			cfg.Seed = seed
			return singleRun{cfg: cfg, spec: workload.Spec{
				Pattern: trace.RandWrite, WriteFrac: 0.7,
				Skew:      workload.Skew{Kind: workload.SkewZipf, Theta: 0.9},
				BlockSize: 4096, SpanBytes: 128 << 20, Requests: scaled(150000, scale), Seed: seed,
			}}
		},
	},
	{
		name:       "nvme-tenants-wrr",
		why:        "the multi-queue host path and WRR arbitration, below saturation, with reads beside open-loop writes",
		layerScale: 0.5,
		single:     func(seed uint64, scale float64) singleRun { return tenantSet(seed, scale, 8000) },
	},
	{
		name:       "dse-table2-sweep",
		why:        "the paper's DSE workflow: 40 Table II points on dse.Runner with 2 workers, where per-point set-up is a visible share",
		layerScale: 1,
		sweep:      sweepPoints,
	},
}

// workloadByName resolves a workload name.
func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
