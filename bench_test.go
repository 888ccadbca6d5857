package ssdx

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (scaled-down per iteration so `go test -bench` stays tractable;
// the full-size numbers come from the cmd/ tools), plus ablation benches for
// the model's design choices and microbenches for the hot substrates.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dse"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- one bench per paper table/figure --------------------------------------

// BenchmarkTable2Configs builds every Table II platform (the paper's design
// points) — platform construction cost.
func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range config.TableII() {
			if _, err := core.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3Configs builds every Table III platform including the
// 8192-die C8 (exercises lazy NAND state allocation).
func BenchmarkTable3Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range config.TableIII() {
			if _, err := core.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2Validation regenerates the validation comparison.
func BenchmarkFig2Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Fig2Validation(0.10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.SimMBps, r.Pattern.String()+"-MB/s")
			}
		}
	}
}

// BenchmarkFig3SATA regenerates the SATA II design-point exploration.
func BenchmarkFig3SATA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := DesignSpaceExplorationShape("sata2", 0.05, "sw")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[5].SSDCache, "C6-cache-MB/s")
			b.ReportMetric(rows[5].SSDNoCache, "C6-nocache-MB/s")
		}
	}
}

// BenchmarkFig4PCIe regenerates the PCIe/NVMe exploration.
func BenchmarkFig4PCIe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := DesignSpaceExplorationShape("pcie-g2x8", 0.05, "sw")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[9].SSDCache, "C10-cache-MB/s")
			b.ReportMetric(rows[9].SSDNoCache, "C10-nocache-MB/s")
		}
	}
}

// BenchmarkFig5Wearout regenerates the ECC/wear-out sweep.
func BenchmarkFig5Wearout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := WearoutSweep(3, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].AdaptiveRead, "adaptive-R0-MB/s")
			b.ReportMetric(rows[len(rows)-1].AdaptiveRead, "adaptive-R1-MB/s")
		}
	}
}

// BenchmarkFig6SimSpeed regenerates the simulation-speed bars over the
// smaller Table III points (C8's 8192 dies are exercised once per iteration
// in BenchmarkTable3Configs; running its full workload per iteration would
// dominate the suite).
func BenchmarkFig6SimSpeed(b *testing.B) {
	cfgs := config.TableIII()[:6]
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096,
				SpanBytes: 1 << 28, Requests: 600, Seed: 7}
			res, err := dse.Point{Config: cfg, Workload: w, Mode: core.ModeFull}.Run(nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.KCPS/1000, cfg.Name+"-MCPS")
			}
		}
	}
}

// --- ablation benches -------------------------------------------------------

// benchRun is a helper: one full-platform run per iteration, reporting MB/s.
func benchRun(b *testing.B, cfg config.Platform, pat trace.Pattern, reqs int, mode core.Mode) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		w := workload.Spec{Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 28, Requests: reqs, Seed: 7}
		res, err := dse.Point{Config: cfg, Workload: w, Mode: mode}.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MBps
	}
	b.ReportMetric(last, "MB/s")
}

// BenchmarkAblationGangSharedBus vs ...SharedControl: the channel/way
// interconnection schemes of Agrawal et al. [15].
func BenchmarkAblationGangSharedBus(b *testing.B) {
	cfg, _ := config.Preset("t2:C5")
	benchRun(b, cfg, trace.SeqWrite, 3000, core.ModeDDRFlash)
}

func BenchmarkAblationGangSharedControl(b *testing.B) {
	cfg, _ := config.Preset("t2:C5")
	cfg.GangMode = "shared-control"
	benchRun(b, cfg, trace.SeqWrite, 3000, core.ModeDDRFlash)
}

// BenchmarkAblationECCEngines1 vs 4: shared bit-serial decode as the read
// bottleneck.
func BenchmarkAblationECCEngines1(b *testing.B) {
	cfg := config.Default()
	cfg.ECCScheme, cfg.ECCT, cfg.ECCEngines, cfg.ECCLatency = "fixed", 40, 1, "bit-serial"
	benchRun(b, cfg, trace.SeqRead, 2000, core.ModeFull)
}

func BenchmarkAblationECCEngines4(b *testing.B) {
	cfg := config.Default()
	cfg.ECCScheme, cfg.ECCT, cfg.ECCEngines, cfg.ECCLatency = "fixed", 40, 4, "bit-serial"
	benchRun(b, cfg, trace.SeqRead, 2000, core.ModeFull)
}

// BenchmarkAblationSingleCore vs DualCore: the firmware wall on random reads.
func BenchmarkAblationSingleCore(b *testing.B) {
	benchRun(b, config.Vertex(), trace.RandRead, 3000, core.ModeFull)
}

func BenchmarkAblationDualCore(b *testing.B) {
	cfg := config.Vertex()
	cfg.CPUCores = 2
	benchRun(b, cfg, trace.RandRead, 3000, core.ModeFull)
}

// BenchmarkAblationCompression: 2:1 channel-side GZIP halves NAND traffic.
func BenchmarkAblationNoCompression(b *testing.B) {
	cfg, _ := config.Preset("t2:C1")
	benchRun(b, cfg, trace.SeqWrite, 6000, core.ModeFull)
}

func BenchmarkAblationChannelCompression(b *testing.B) {
	cfg, _ := config.Preset("t2:C1")
	cfg.CompressPlacement = "channel"
	cfg.CompressRatio = 0.5
	benchRun(b, cfg, trace.SeqWrite, 6000, core.ModeFull)
}

// BenchmarkAblationAHBLayers: single vs multi-layer interconnect under the
// PCIe host where the AHB is the bottleneck.
func BenchmarkAblationAHB1Layer(b *testing.B) {
	cfg, _ := config.Preset("t2:C10")
	cfg.HostIF = "pcie-g2x8"
	benchRun(b, cfg, trace.SeqWrite, 6000, core.ModeFull)
}

func BenchmarkAblationAHB4Layer(b *testing.B) {
	cfg, _ := config.Preset("t2:C10")
	cfg.HostIF = "pcie-g2x8"
	cfg.AHBLayers = 4
	benchRun(b, cfg, trace.SeqWrite, 6000, core.ModeFull)
}

// BenchmarkAblationQueueDepth: the NCQ wall directly.
func BenchmarkAblationQueueDepth1(b *testing.B) {
	cfg := config.Default()
	cfg.QueueDepth = 1
	cfg.CachePolicy = "nocache"
	benchRun(b, cfg, trace.SeqWrite, 400, core.ModeFull)
}

func BenchmarkAblationQueueDepth32(b *testing.B) {
	cfg := config.Default()
	cfg.CachePolicy = "nocache"
	benchRun(b, cfg, trace.SeqWrite, 1500, core.ModeFull)
}

// --- substrate microbenches --------------------------------------------------

// BenchmarkKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			k.Schedule(sim.Nanosecond, pump)
		}
	}
	b.ResetTimer()
	k.Schedule(0, pump)
	k.RunAll()
}

// BenchmarkFirmwareResolve measures the real ARM firmware FTL lookup.
func BenchmarkFirmwareResolve(b *testing.B) {
	f, err := cpu.NewFirmwareFTL(4096, 4, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Resolve(int64(i%4096), i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperRandomWrite measures the real page-mapped FTL under random
// traffic (GC included).
func BenchmarkMapperRandomWrite(b *testing.B) {
	g := ftl.Geometry{Units: 4, BlocksPerUnit: 128, PagesPerBlock: 64}
	logical := int64(float64(g.TotalPages()) * 0.8)
	m, err := ftl.NewMapper(g, logical)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Write(rng.Int63n(logical)); err != nil {
			b.Fatal(err)
		}
	}
}
