package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mapperCfg is a Vertex-class platform running the real page-mapped FTL
// restricted to a small managed region so garbage collection is reachable
// in test-sized runs.
func mapperCfg() config.Platform {
	cfg := config.Vertex()
	cfg.FTLMode = "mapper"
	// The mapper reserves two free blocks per unit for GC headroom, so a
	// small managed region needs a generous spare factor.
	cfg.SpareFactor = 0.35
	cfg.MapperBlocksPerUnit = 6
	return cfg
}

// replayList replays an explicit request list through a trace file, the one
// replay path, with the scanned write pattern as the starting WAF regime.
func replayList(t *testing.T, p *Platform, reqs []trace.Request) (Result, error) {
	t.Helper()
	path := writeTraceReqs(t, reqs)
	info, err := workload.ScanTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(workload.Spec{TracePath: path, ReplaySeqWrites: !info.RandomWrites}, ModeFull)
}

func TestMapperModeSequential(t *testing.T) {
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 6000, Seed: 7}
	res, err := runWorkload(mapperCfg(), w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6000 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Sequential traffic keeps measured WAF near 1 even with GC enabled.
	if res.WAF > 1.3 {
		t.Fatalf("sequential measured WAF %.2f", res.WAF)
	}
	if res.MBps < 40 {
		t.Fatalf("mapper sequential throughput %.1f implausible", res.MBps)
	}
}

func TestMapperModeRandomGC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Span sized above the managed capacity share so random overwrites
	// force real garbage collection.
	cfg := mapperCfg()
	w := workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 96 << 20, Requests: 40000, Seed: 7}
	res, err := runWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCCopies == 0 || res.Erases == 0 {
		t.Fatalf("real FTL never collected: copies %d erases %d", res.GCCopies, res.Erases)
	}
	if res.WAF <= 1.05 {
		t.Fatalf("measured WAF %.2f under random overwrites", res.WAF)
	}
	// Random throughput must fall below sequential (GC steals bandwidth).
	seq, err := runWorkload(mapperCfg(), workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 25, Requests: 40000, Seed: 7,
	}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps >= seq.MBps {
		t.Fatalf("random %.1f not below sequential %.1f", res.MBps, seq.MBps)
	}
}

func TestMapperModeReadAfterWrite(t *testing.T) {
	// Write then read back through the real map via trace replay.
	var reqs []trace.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpWrite, LBA: int64(i) * 8, Bytes: 4096})
	}
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpRead, LBA: int64(i) * 8, Bytes: 4096})
	}
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayList(t, p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 800 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Reads of written pages must touch flash.
	if res.FlashReads < 400 {
		t.Fatalf("flash reads %d, map did not resolve", res.FlashReads)
	}
}

// TestRunRequestsMapperWAF: a request list replayed on the mapper FTL
// reports the write amplification the FTL measured, not the WAF
// abstraction's constant for the scanned write pattern.
func TestRunRequestsMapperWAF(t *testing.T) {
	reqs := generate(t, workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 120 << 20,
		Requests: 40000, Seed: 7})
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayList(t, p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCCopies == 0 {
		t.Fatal("random overwrites never reached garbage collection")
	}
	if want := p.mapper.m.MeasuredWAF(); res.WAF != want {
		t.Fatalf("replay WAF %.4f, mapper measured %.4f", res.WAF, want)
	}
}

func TestMapperModeUnwrittenReadZeroFill(t *testing.T) {
	// Reading never-written space in mapper mode is served from the map
	// (no flash access) and still completes.
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{Op: trace.OpRead, LBA: 0, Bytes: 4096}}
	res, err := replayList(t, p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.FlashReads != 0 {
		t.Fatalf("zero-fill read touched flash %d times", res.FlashReads)
	}
}

// TestMapperTrimExtent trims the first of two written pages: the trim
// unmaps exactly the pages its command spans, so reading both back touches
// flash once, for the second page. The commands arrive 10 ms apart, so
// each one finishes before the next starts.
func TestMapperTrimExtent(t *testing.T) {
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	page := int64(p.pageBytes)
	reqs := []trace.Request{
		{ArrivalUS: 1, Op: trace.OpWrite, LBA: 0, Bytes: 2 * page},
		{ArrivalUS: 10000, Op: trace.OpTrim, LBA: 0, Bytes: page},
		{ArrivalUS: 20000, Op: trace.OpRead, LBA: 0, Bytes: 2 * page},
	}
	res, err := replayList(t, p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d", res.Completed)
	}
	f := p.mapper
	for i, want := range []bool{false, true} {
		if _, mapped := f.m.Read(f.lpnOf(0, p.pageBytes, i)); mapped != want {
			t.Errorf("page %d mapped = %v after a one-page trim, want %v", i, mapped, want)
		}
	}
	if res.FlashReads != 1 {
		t.Fatalf("%d flash reads, want 1 (page 0 trimmed, page 1 still mapped)", res.FlashReads)
	}
}

// TestMapperLPNWraps checks lpnOf at the end of the logical space: a page
// landing exactly on it wraps to logical page 0, and the page before it
// stays in place.
func TestMapperLPNWraps(t *testing.T) {
	const pageBytes = 4096
	f := &mapperFTL{logical: 10}
	lba := 9 * pageBytes / trace.SectorSize // logical page 9, the last one
	for off, want := range []int64{9, 0, 1} {
		if got := f.lpnOf(int64(lba), pageBytes, off); got != want {
			t.Errorf("page %d of a request at logical page 9: lpn %d, want %d", off, got, want)
		}
	}
}

func TestFirmwareCPUModel(t *testing.T) {
	// Real firmware execution must behave like a working platform and
	// show the same qualitative random-read CPU wall as the parametric
	// model (the table walk runs on the interpreter instead).
	cfg := config.Vertex()
	cfg.CPUModel = "firmware"
	w := workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 4000, Seed: 7}
	fw, err := runWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Completed != 4000 {
		t.Fatalf("completed %d", fw.Completed)
	}
	if fw.MBps <= 0 {
		t.Fatalf("throughput %v", fw.MBps)
	}
	// The assembled lookup routine is far cheaper than the parametric
	// random-map cost (flat table in SRAM vs. modelled table walk), so
	// firmware-mode random reads run faster.
	cfg2 := config.Vertex()
	par, err := runWorkload(cfg2, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if fw.MBps <= par.MBps {
		t.Fatalf("firmware %.1f vs parametric %.1f: expected cheaper lookup", fw.MBps, par.MBps)
	}
}

func TestFirmwareCPUModelWrites(t *testing.T) {
	cfg := config.Vertex()
	cfg.CPUModel = "firmware"
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 3000, Seed: 7}
	res, err := runWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3000 || res.MBps <= 0 {
		t.Fatalf("firmware write run: %+v", res)
	}
}

// TestMapperValidateMatchesBuild checks that config.Validate accepts a
// mapper platform exactly when Build can build it, over a grid of spare
// factors and managed blocks per unit on both sides of the mapper's
// two-spare-blocks-per-unit rule.
func TestMapperValidateMatchesBuild(t *testing.T) {
	accepted, rejected := 0, 0
	for _, blocks := range []int{1, 2, 3, 4, 8, 16, 32} {
		for _, spare := range []float64{0.05, 0.126, 0.3, 0.5, 0.7} {
			cfg := config.Vertex()
			cfg.FTLMode = "mapper"
			cfg.MapperBlocksPerUnit = blocks
			cfg.SpareFactor = spare
			verr := cfg.Validate()
			_, berr := Build(cfg)
			if (verr == nil) != (berr == nil) {
				t.Errorf("blocks %d, spare %v: Validate %v, Build %v", blocks, spare, verr, berr)
			}
			if verr == nil {
				accepted++
				continue
			}
			rejected++
			cfg.FTLMode = "waf"
			if err := cfg.Validate(); err != nil {
				t.Errorf("blocks %d, spare %v: rejected for more than the mapper: %v", blocks, spare, err)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("grid is one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}
