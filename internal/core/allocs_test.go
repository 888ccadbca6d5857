package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDataPathAllocsPerCommand pins the heap allocations and bytes one
// host command costs in ModeFull. Host commands and the platform's
// per-command records recycle through capped pools, the host interface's
// link and pull steps are bound once, every timed resource (CPU cores, ECC
// engines, the compressor, the AHB, DRAM) runs the caller's own bound
// callback at its window's end, flash dispatch rides pooled records
// (program, read, GC read completion, batch completion), a die op binds
// two callbacks and the mapper reuses one op list, so what remains is pool
// warm-up to the
// in-flight peak, rebuilding the records a burst holds beyond the pools'
// cap (sim.PoolCap), and the completion log behind the tail throughput
// (4 B per completion at one request size); a closure chain or an unpooled record creeping back into
// any stage shows up here. The WAF random-write case injects about three
// GC copies per command, whose backlog runs thousands of reads and
// programs deep. The Vertex case runs the mapper FTL with ECC on and a
// spare area small enough that GC relocates about one page per three
// commands, so the relocation prep, its read records and the ECC jobs are
// covered too; each relocation keeps two hop closures. The
// compress-seq-write case runs every write through the channel-side
// compressor's occupancy path. Measured per command: seq-write and compress-seq-write 0.66 mallocs and
// 50 B, rand-read 0.07 and 15 B, waf-rand-write 3.7 and 193 B,
// vertex-mapper-ecc 3.1 and 185 B.
func TestDataPathAllocsPerCommand(t *testing.T) {
	const reqs = 20000
	vertex := config.Vertex()
	vertex.FTLMode = "mapper"
	vertex.MapperBlocksPerUnit = 3
	vertex.SpareFactor = 0.67
	compressed := config.Default()
	compressed.CompressPlacement = "channel"
	for _, tc := range []struct {
		name  string
		cfg   config.Platform
		w     workload.Spec
		bound float64 // mallocs per command
		bytes float64 // bytes allocated per command
	}{
		{"seq-write", config.Default(), workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 0.8, 60},
		{"compress-seq-write", compressed, workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 0.8, 60},
		{"rand-read", config.Default(), workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 28}, 0.5, 25},
		{"waf-rand-write", config.Default(), workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 5, 250},
		{"vertex-mapper-ecc", vertex, workload.Spec{
			Pattern: trace.RandWrite, WriteFrac: 0.7,
			Skew:      workload.Skew{Kind: workload.SkewZipf, Theta: 0.9},
			BlockSize: 4096, SpanBytes: 128 << 20,
		}, 4, 230},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := tc.w
			w.Requests, w.Seed = reqs, 7
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := p.Run(w, ModeFull)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != reqs {
				t.Fatalf("completed %d of %d commands", res.Completed, reqs)
			}
			if tc.w.Pattern == trace.RandWrite && res.GCCopies == 0 {
				t.Fatal("the random-write case relocated no pages")
			}
			per := float64(after.Mallocs-before.Mallocs) / reqs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / reqs
			t.Logf("%s: %.2f mallocs, %.0f B per command (%d GC copies)", tc.name, per, bytes, res.GCCopies)
			if per > tc.bound {
				t.Errorf("%s: %.1f mallocs per command, bound %g", tc.name, per, tc.bound)
			}
			if bytes > tc.bytes {
				t.Errorf("%s: %.0f B per command, bound %g", tc.name, bytes, tc.bytes)
			}
		})
	}
}
