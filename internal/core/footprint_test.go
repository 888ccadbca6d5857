package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
)

// buildFootprintLimit bounds the live heap a freshly built platform may
// hold. NAND block state is materialised on first touch, so Build's cost is
// the topology's controllers and queues, not its flash capacity: Table III
// C8 (8192 dies) stays in single-digit megabytes, where one eager
// per-block array would cost over a gigabyte.
const buildFootprintLimit = 32 << 20

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestBuildFootprint(t *testing.T) {
	c8 := config.TableIII()[7]
	worn := c8
	worn.Wear = 0.5 // SetWear on every channel must not walk the blocks either
	for _, tc := range []struct {
		name string
		cfg  config.Platform
	}{{"C8", c8}, {"C8-wear0.5", worn}} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			p, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			after := liveHeap()
			runtime.KeepAlive(p)
			grown := int64(after) - int64(before)
			t.Logf("%s (%d dies): Build holds %.1f MB live", tc.cfg.Describe(), tc.cfg.TotalDies(), float64(grown)/(1<<20))
			if grown > buildFootprintLimit {
				t.Fatalf("Build of %s holds %d MB live, limit %d MB", tc.cfg.Describe(), grown>>20, buildFootprintLimit>>20)
			}
		})
	}
}
