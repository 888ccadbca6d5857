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
// compressor's occupancy path. The NVMe deep-queue case puts all its
// closed-loop reads in the window at once on a topology whose flash
// outruns the firmware, so thousands of commands wait on the CPU core:
// each costs its host command there (the pool holds only sim.PoolCap),
// and its record is built only when its firmware task ends, which keeps
// the records few enough to recycle. Measured per command: seq-write and
// compress-seq-write 0.66 mallocs and 48 B, rand-read 0.07 and 15 B,
// waf-rand-write 3.7 and 191 B, vertex-mapper-ecc 3.1 and 184 B,
// nvme-deep-rand-read 1.1 and 349 B.
func TestDataPathAllocsPerCommand(t *testing.T) {
	const reqs = 20000
	vertex := config.Vertex()
	vertex.FTLMode = "mapper"
	vertex.MapperBlocksPerUnit = 3
	vertex.SpareFactor = 0.67
	compressed := config.Default()
	compressed.CompressPlacement = "channel"
	nvme := config.Default()
	nvme.HostIF = "pcie-g2x8"
	nvme.Channels = 16
	for _, tc := range []struct {
		name  string
		cfg   config.Platform
		w     workload.Spec
		bound float64 // mallocs per command
		bytes float64 // bytes allocated per command
		deep  bool    // the case must back the firmware queue up past 1,000 commands
	}{
		{"seq-write", config.Default(), workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 0.8, 60, false},
		{"compress-seq-write", compressed, workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 0.8, 60, false},
		{"rand-read", config.Default(), workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 28}, 0.5, 25, false},
		{"waf-rand-write", config.Default(), workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 5, 250, false},
		{"vertex-mapper-ecc", vertex, workload.Spec{
			Pattern: trace.RandWrite, WriteFrac: 0.7,
			Skew:      workload.Skew{Kind: workload.SkewZipf, Theta: 0.9},
			BlockSize: 4096, SpanBytes: 128 << 20,
		}, 4, 230, false},
		{"nvme-deep-rand-read", nvme, workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 28}, 1.5, 400, true},
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
			if core := p.CPU.Cores()[0]; tc.deep && (res.HostQueuePeak <= 1000 || core.QueuePeak <= 1000) {
				t.Fatalf("queue peaks host %d, %s %d: the firmware queue never backed up", res.HostQueuePeak, core.Name(), core.QueuePeak)
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

// BenchmarkFirmwareWait plays a long closed-loop stream of 4 KB trims
// through an NVMe window of 128 commands: the firmware core is the
// only slow resource, so nearly every command waits for it in its core's
// FIFO, gets its record when its task ends and retires at once. The host
// commands and records both stay under the pools' cap (sim.PoolCap) and
// recycle, so the cycle allocates nothing per command; the tail log's one
// 4 KiB chunk per 2,048 completions rounds to 0 allocs/op on a long run.
func BenchmarkFirmwareWait(b *testing.B) {
	cfg := config.Default()
	cfg.HostIF = "pcie-g2x8"
	cfg.QueueDepth = 128
	p, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]trace.Request, b.N)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.OpTrim, LBA: int64(8 * i), Bytes: 4096}
	}
	st := workload.FromRequests(reqs)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := p.playStream(st, ModeFull)
	if err != nil {
		b.Fatal(err)
	}
	if res.Completed != uint64(b.N) {
		b.Fatalf("completed %d of %d", res.Completed, b.N)
	}
	if peak := p.CPU.Cores()[0].QueuePeak; b.N >= 1000 && peak < 100 {
		b.Fatalf("the firmware queue peaked at %d: commands did not wait on the core", peak)
	}
}
