package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDataPathAllocsPerCommand pins the heap allocations one host command
// costs on the default platform in ModeFull. Host commands travel as
// records (the host interface's link and pull steps, the platform's
// per-command write/read record and the CPU complex's per-core grant), so
// what remains is the command itself, its record and the flash dispatch
// hops; a closure chain creeping back into any of those stages shows up
// here as several extra allocations per request.
func TestDataPathAllocsPerCommand(t *testing.T) {
	const reqs = 20000
	for _, tc := range []struct {
		name  string
		pat   trace.Pattern
		bound float64
	}{
		{"seq-write", trace.SeqWrite, 15},
		{"rand-read", trace.RandRead, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Build(config.Default())
			if err != nil {
				t.Fatal(err)
			}
			w := workload.Spec{Pattern: tc.pat, BlockSize: 4096, SpanBytes: 1 << 28, Requests: reqs, Seed: 7}
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
			per := float64(after.Mallocs-before.Mallocs) / reqs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / reqs
			t.Logf("%s: %.1f mallocs, %.0f B per command", tc.name, per, bytes)
			if per > tc.bound {
				t.Fatalf("%s: %.1f mallocs per command, bound %.0f", tc.name, per, tc.bound)
			}
		})
	}
}
