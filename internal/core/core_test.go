package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/hostif"
	"repro/internal/nvme"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runWorkload builds a platform from cfg and runs w on it in mode.
func runWorkload(cfg config.Platform, w workload.Spec, mode Mode) (Result, error) {
	p, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.Run(w, mode)
}

// runTenantWorkload builds a platform from cfg and runs set on it in mode.
func runTenantWorkload(cfg config.Platform, set nvme.TenantSet, mode Mode) (Result, error) {
	p, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.RunTenants(set, mode)
}

// generate materialises w's whole request stream.
func generate(t testing.TB, w workload.Spec) []trace.Request {
	t.Helper()
	st, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var reqs []trace.Request
	for req, ok := st.Next(); ok; req, ok = st.Next() {
		reqs = append(reqs, req)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// run4k is a helper running a 4 KB workload on a config.
func run4k(t *testing.T, cfg config.Platform, pat trace.Pattern, reqs int, mode Mode) Result {
	t.Helper()
	w := workload.Spec{Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 28, Requests: reqs, Seed: 7}
	res, err := runWorkload(cfg, w, mode)
	if err != nil {
		t.Fatalf("%v %v: %v", pat, mode, err)
	}
	return res
}

func TestBuildValidation(t *testing.T) {
	bad := config.Default()
	bad.Channels = 0
	if _, err := Build(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad = config.Default()
	bad.HostIF = "scsi"
	if _, err := Build(bad); err == nil {
		t.Fatal("unknown host interface accepted")
	}
}

func TestModeNames(t *testing.T) {
	names := map[Mode]string{
		ModeFull: "ssd", ModeHostIdeal: "host-ideal",
		ModeHostDDR: "host+ddr", ModeDDRFlash: "ddr+flash",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("mode %d: %q", m, m.String())
		}
	}
}

// TestVertexValidation is the Fig. 2 experiment in miniature: the simulated
// Vertex-class platform must land within the paper's error bands around the
// reference throughputs (ssdx.Fig2References, in experiments.go).
func TestVertexValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	refs := map[trace.Pattern][2]float64{
		trace.SeqWrite:  {140, 180}, // ref 165 +/- paper's ~8%
		trace.SeqRead:   {228, 252}, // ref 240 +/- ~5%
		trace.RandWrite: {25, 40},   // ref 32 +/- ~15% (WAF approximation)
		trace.RandRead:  {130, 150}, // ref 140 +/- ~7%
	}
	for pat, band := range refs {
		res := run4k(t, config.Vertex(), pat, 12000, ModeFull)
		if res.MBps < band[0] || res.MBps > band[1] {
			t.Errorf("%v: %.1f MB/s outside [%v, %v]", pat, res.MBps, band[0], band[1])
		}
	}
}

// TestCacheSteadyStateEqualsDrain: with caching, steady-state host
// throughput converges to the flash drain rate — the physical consistency
// behind Fig. 3's "perfect balancing" argument.
func TestCacheSteadyStateEqualsDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, _ := config.Preset("t2:C1")
	drain := run4k(t, cfg, trace.SeqWrite, 12000, ModeDDRFlash)
	full := run4k(t, cfg, trace.SeqWrite, 12000, ModeFull)
	if full.MBps > drain.MBps*1.1 {
		t.Fatalf("cache throughput %.1f exceeds drain %.1f", full.MBps, drain.MBps)
	}
	if full.MBps < drain.MBps*0.8 {
		t.Fatalf("cache throughput %.1f far below drain %.1f", full.MBps, drain.MBps)
	}
}

// TestNoCacheQueueDepthWall: the paper's central Fig. 3 finding — with the
// no-cache policy, SATA's 32-command window flattens throughput regardless
// of internal parallelism, so small and large configs converge.
func TestNoCacheQueueDepthWall(t *testing.T) {
	var vals []float64
	for _, name := range []string{"t2:C1", "t2:C6"} {
		cfg, _ := config.Preset(name)
		cfg.CachePolicy = "nocache"
		res := run4k(t, cfg, trace.SeqWrite, 4000, ModeFull)
		vals = append(vals, res.MBps)
	}
	// C6 has 16x the dies of C1 yet must not exceed C1 meaningfully.
	if vals[1] > vals[0]*1.25 {
		t.Fatalf("no-cache wall broken: C1 %.1f vs C6 %.1f", vals[0], vals[1])
	}
	// The wall sits near QD * block / program latency (~40 MB/s).
	if vals[0] < 25 || vals[0] > 60 {
		t.Fatalf("no-cache level %.1f implausible", vals[0])
	}
}

// TestNVMeUnveilsParallelism: Fig. 4's finding — the 64K-entry NVMe queue
// lets no-cache throughput track the cache configuration.
func TestNVMeUnveilsParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, _ := config.Preset("t2:C6")
	cfg.HostIF = "pcie-g2x8"
	cfg.CachePolicy = "nocache"
	nvme := run4k(t, cfg, trace.SeqWrite, 16000, ModeFull)

	sata, _ := config.Preset("t2:C6")
	sata.CachePolicy = "nocache"
	res := run4k(t, sata, trace.SeqWrite, 4000, ModeFull)

	if nvme.MBps < 5*res.MBps {
		t.Fatalf("NVMe no-cache %.1f did not unveil parallelism vs SATA %.1f",
			nvme.MBps, res.MBps)
	}
}

// TestPCIeInterconnectBottleneck: Fig. 4 — PCIe removes the host limit and
// even C10 cannot saturate it; the interconnect becomes the wall.
func TestPCIeInterconnectBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, _ := config.Preset("t2:C10")
	cfg.HostIF = "pcie-g2x8"
	ideal := run4k(t, cfg, trace.SeqWrite, 4000, ModeHostIdeal)
	full := run4k(t, cfg, trace.SeqWrite, 16000, ModeFull)
	if full.MBps > ideal.MBps/3 {
		t.Fatalf("C10 %.1f too close to PCIe ideal %.1f", full.MBps, ideal.MBps)
	}
	if full.MBps < 250 {
		t.Fatalf("C10 PCIe throughput %.1f implausibly low", full.MBps)
	}
}

// TestAdaptiveVsFixedECC is Fig. 5's relation at three wear points.
func TestAdaptiveVsFixedECC(t *testing.T) {
	read := func(scheme string, wear float64) float64 {
		cfg := config.Default()
		cfg.ECCScheme = scheme
		cfg.ECCT = 40
		cfg.ECCEngines = 1
		cfg.ECCLatency = "bit-serial"
		cfg.Wear = wear
		return run4k(t, cfg, trace.SeqRead, 4000, ModeFull).MBps
	}
	fixed0, adapt0 := read("fixed", 0), read("adaptive", 0)
	if adapt0 < 1.5*fixed0 {
		t.Fatalf("adaptive read %.1f not well above fixed %.1f at low wear", adapt0, fixed0)
	}
	fixedEOL, adaptEOL := read("fixed", 1.0), read("adaptive", 1.0)
	if diff := adaptEOL/fixedEOL - 1; diff > 0.1 || diff < -0.1 {
		t.Fatalf("adaptive %.1f and fixed %.1f must converge at end of life", adaptEOL, fixedEOL)
	}
	// Monotone decline for adaptive.
	mid := read("adaptive", 0.5)
	if !(adapt0 > mid && mid > adaptEOL*0.95) {
		t.Fatalf("adaptive read not declining: %.1f %.1f %.1f", adapt0, mid, adaptEOL)
	}
}

// TestWriteLargelyECCInsensitive: Fig. 5's second claim — encode latency
// barely depends on correction strength, so writes are similar across
// schemes and wear.
func TestWriteLargelyECCInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	write := func(scheme string, wear float64) float64 {
		cfg := config.Default()
		cfg.ECCScheme = scheme
		cfg.ECCT = 40
		cfg.ECCEngines = 1
		cfg.ECCLatency = "bit-serial"
		cfg.Wear = wear
		return run4k(t, cfg, trace.SeqWrite, 4000, ModeFull).MBps
	}
	vals := []float64{write("fixed", 0), write("fixed", 1), write("adaptive", 0), write("adaptive", 1)}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if (max-min)/min > 0.15 {
		t.Fatalf("write throughput too ECC-sensitive: %v", vals)
	}
}

// TestHostIdealMatchesAnalytic ties the simulated host-ideal column to the
// interface's analytic rate.
func TestHostIdealMatchesAnalytic(t *testing.T) {
	cfg := config.Default()
	res := run4k(t, cfg, trace.SeqWrite, 4000, ModeHostIdeal)
	hcfg, err := hostif.Parse(cfg.HostIF)
	if err != nil {
		t.Fatal(err)
	}
	want := hcfg.IdealMBps(4096, true)
	if res.MBps < want*0.95 || res.MBps > want*1.05 {
		t.Fatalf("host ideal %.1f vs analytic %.1f", res.MBps, want)
	}
}

// TestHostDDRModeStopsAtDRAM: the host+DDR column completes a command once
// its data has landed in (or left) the DRAM buffers, so it touches no flash,
// charges no firmware time and runs no faster than the host link alone.
func TestHostDDRModeStopsAtDRAM(t *testing.T) {
	cfg := config.Default()
	for _, pat := range []trace.Pattern{trace.SeqWrite, trace.RandRead} {
		ddr := run4k(t, cfg, pat, 2000, ModeHostDDR)
		ideal := run4k(t, cfg, pat, 2000, ModeHostIdeal)
		if ddr.Completed != 2000 || ddr.FlashWrites != 0 || ddr.FlashReads != 0 {
			t.Fatalf("%v: %d completed, %d flash writes, %d flash reads", pat, ddr.Completed, ddr.FlashWrites, ddr.FlashReads)
		}
		if ddr.Stages.CPU.MeanUS != 0 || ddr.Stages.NAND.MeanUS != 0 || ddr.Stages.DRAM.MeanUS <= 0 {
			t.Fatalf("%v: stage means CPU %.2f NAND %.2f DRAM %.2f us", pat, ddr.Stages.CPU.MeanUS, ddr.Stages.NAND.MeanUS, ddr.Stages.DRAM.MeanUS)
		}
		if ddr.MBps > ideal.MBps*1.01 {
			t.Fatalf("%v: host+ddr %.1f MB/s above host-ideal %.1f", pat, ddr.MBps, ideal.MBps)
		}
	}
}

// TestReadsPreloadOnFirstTouch: a read marks its page as pre-existing data
// when it first reaches the die, so a full-platform run programs exactly
// the read-region pages its requests touch, and the host-only columns,
// which never reach flash, program none.
func TestReadsPreloadOnFirstTouch(t *testing.T) {
	w := workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 30, Requests: 64, Seed: 7}
	reqs := generate(t, w)
	for _, mode := range []Mode{ModeFull, ModeHostIdeal, ModeHostDDR} {
		p, err := Build(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(w, mode); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		touched := map[int64]bool{}
		if mode == ModeFull {
			for _, r := range reqs {
				first := r.LBA * trace.SectorSize / int64(p.pageBytes)
				for i := 0; i < p.pagesOf(r.Bytes); i++ {
					touched[first+int64(i)] = true
				}
			}
		}
		pages := w.SpanBytes / int64(p.pageBytes)
		programmed, wrong := 0, int64(-1)
		for i := int64(0); i < pages; i++ {
			gdie, a := p.readAddr(i)
			ch, die := p.chanDie(gdie)
			ok, err := p.Channels[ch].Die(die).PageProgrammed(a)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				programmed++
			}
			if ok != touched[i] && wrong < 0 {
				wrong = i
			}
		}
		if wrong >= 0 || programmed != len(touched) {
			t.Fatalf("%v: %d of %d read-region pages programmed, want the %d touched (first mismatch: page %d)",
				mode, programmed, pages, len(touched), wrong)
		}
	}
}

// TestRandomWriteWAFInjected: random writes must carry greedy-GC traffic.
func TestRandomWriteWAFInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := run4k(t, config.Vertex(), trace.RandWrite, 4000, ModeFull)
	if res.WAF < 2 {
		t.Fatalf("random WAF %.2f", res.WAF)
	}
	if res.GCCopies == 0 {
		t.Fatalf("no GC copies injected")
	}
	ratio := float64(res.GCCopies) / float64(res.UserPages)
	if ratio < res.WAF-1.3 || ratio > res.WAF-0.7 {
		t.Fatalf("GC copies per user page %.2f inconsistent with WAF %.2f", ratio, res.WAF)
	}
	// Sequential writes must not.
	seq := run4k(t, config.Vertex(), trace.SeqWrite, 4000, ModeFull)
	if seq.WAF != 1 || seq.GCCopies != 0 {
		t.Fatalf("sequential WAF %.2f copies %d", seq.WAF, seq.GCCopies)
	}
}

// TestRandomReadCPUBound: the single ARM7 core is the random-read wall (the
// control-path bottleneck the paper's RTL-level CPU model exists to expose);
// doubling cores must lift it.
func TestRandomReadCPUBound(t *testing.T) {
	one := run4k(t, config.Vertex(), trace.RandRead, 8000, ModeFull)
	if one.CPUUtil < 0.9 {
		t.Fatalf("random read CPU utilization %.2f, expected saturation", one.CPUUtil)
	}
	multi := config.Vertex()
	multi.CPUCores = 2
	two := run4k(t, multi, trace.RandRead, 8000, ModeFull)
	if two.MBps < one.MBps*1.3 {
		t.Fatalf("second core did not lift random reads: %.1f -> %.1f", one.MBps, two.MBps)
	}
}

// TestChannelCompressionBoostsWrites: a 2:1 channel/way compressor halves
// NAND traffic and nearly doubles flash-bound sequential writes.
func TestChannelCompressionBoostsWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base, _ := config.Preset("t2:C1")
	plain := run4k(t, base, trace.SeqWrite, 12000, ModeFull)
	comp := base
	comp.CompressPlacement = "channel"
	comp.CompressRatio = 0.5
	boosted := run4k(t, comp, trace.SeqWrite, 12000, ModeFull)
	if boosted.MBps < plain.MBps*1.6 {
		t.Fatalf("2:1 compression gain too small: %.1f -> %.1f", plain.MBps, boosted.MBps)
	}
	if boosted.FlashWrites > plain.FlashWrites*6/10 {
		t.Fatalf("NAND traffic not halved: %d vs %d", boosted.FlashWrites, plain.FlashWrites)
	}
}

// TestGangModeAblation: shared-control gang outperforms shared-bus when the
// ONFI data bus is the constraint (many dies on the slow explore bus).
func TestGangModeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bus, _ := config.Preset("t2:C5") // 8 ch x 8 way x 8 die: bus saturated
	busRes := run4k(t, bus, trace.SeqWrite, 12000, ModeDDRFlash)
	sc := bus
	sc.GangMode = "shared-control"
	scRes := run4k(t, sc, trace.SeqWrite, 12000, ModeDDRFlash)
	if scRes.MBps <= busRes.MBps*1.05 {
		t.Fatalf("shared-control gang gave no gain: %.1f vs %.1f", scRes.MBps, busRes.MBps)
	}
}

// TestECCEngineAblation: with the bit-serial profile a single shared engine
// caps reads; adding engines scales them.
func TestECCEngineAblation(t *testing.T) {
	cfg := config.Default()
	cfg.ECCScheme = "fixed"
	cfg.ECCT = 40
	cfg.ECCLatency = "bit-serial"
	cfg.ECCEngines = 1
	one := run4k(t, cfg, trace.SeqRead, 4000, ModeFull)
	cfg.ECCEngines = 4
	four := run4k(t, cfg, trace.SeqRead, 4000, ModeFull)
	if four.MBps < one.MBps*2 {
		t.Fatalf("ECC engines did not scale reads: %.1f -> %.1f", one.MBps, four.MBps)
	}
}

func TestResultString(t *testing.T) {
	res := run4k(t, config.Default(), trace.SeqWrite, 500, ModeHostIdeal)
	s := res.String()
	if !strings.Contains(s, "MB/s") || !strings.Contains(s, "host-ideal") {
		t.Fatalf("result string %q", s)
	}
}

// TestSimSpeedScalesInversely is Fig. 6's property: more instantiated
// resources, fewer simulated kilocycles per wall second.
func TestSimSpeedScalesInversely(t *testing.T) {
	speed := func(preset string) float64 {
		cfg, _ := config.Preset(preset)
		res := run4k(t, cfg, trace.SeqWrite, 2000, ModeFull)
		return res.KCPS
	}
	small := speed("t3:C1")
	large := speed("t3:C7")
	if small <= large {
		t.Fatalf("KCPS did not decrease with resources: C1 %.0f vs C7 %.0f", small, large)
	}
}

func TestTrimFlushHandled(t *testing.T) {
	cfg := config.Default()
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{
		{Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{Op: trace.OpTrim, LBA: 0, Bytes: 1 << 20},
		{Op: trace.OpFlush},
	}
	done := false
	if err := p.Host.Run(workload.FromRequests(reqs), func(c *hostif.Command) {
		p.handleCommand(c, ModeFull)
	}, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	p.K.RunAll()
	if !done {
		t.Fatal("trim/flush trace did not drain")
	}
}
