package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDataPathAllocsPerCommand pins the heap allocations one host command
// costs in ModeFull. Host commands travel as records (the host interface's
// link and pull steps, the platform's per-command record with its two bound
// steps and the CPU complex's per-core grant), and flash dispatch rides
// pooled records (program, read, batch completion, ECC job), so what
// remains is the command itself and its record; a closure chain creeping
// back into any of those stages shows up here as extra allocations per
// request. The Vertex case runs the mapper FTL with ECC on and a spare
// area small enough that GC relocates about one page per three commands,
// so the relocation prep, its read records and the ECC jobs are covered
// too. Its bound is looser: each relocation keeps two hop closures, the
// mapper returns a fresh op list per write, and the controller's op pool
// and the read pool grow to the deep in-flight peak GC traffic builds.
func TestDataPathAllocsPerCommand(t *testing.T) {
	const reqs = 20000
	vertex := config.Vertex()
	vertex.FTLMode = "mapper"
	vertex.MapperBlocksPerUnit = 3
	vertex.SpareFactor = 0.67
	for _, tc := range []struct {
		name  string
		cfg   config.Platform
		w     workload.Spec
		bound float64
	}{
		{"seq-write", config.Default(), workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28}, 6},
		{"rand-read", config.Default(), workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 28}, 5},
		{"vertex-mapper-ecc", vertex, workload.Spec{
			Pattern: trace.RandWrite, WriteFrac: 0.7,
			Skew:      workload.Skew{Kind: workload.SkewZipf, Theta: 0.9},
			BlockSize: 4096, SpanBytes: 128 << 20,
		}, 10},
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
			if tc.cfg.FTLMode == "mapper" && res.GCCopies == 0 {
				t.Fatal("the mapper case relocated no pages; shrink its spare area")
			}
			per := float64(after.Mallocs-before.Mallocs) / reqs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / reqs
			t.Logf("%s: %.1f mallocs, %.0f B per command (%d GC copies)", tc.name, per, bytes, res.GCCopies)
			if per > tc.bound {
				t.Fatalf("%s: %.1f mallocs per command, bound %.0f", tc.name, per, tc.bound)
			}
		})
	}
}
