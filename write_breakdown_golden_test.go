package ssdx

import (
	"fmt"
	"strings"
	"testing"
)

// TestWriteBreakdownGolden pins the split write-path stage breakdown: a
// no-cache sequential write run (program on the host-visible critical path,
// ECC enabled) must report distinct die-queue (chan), ONFI bus, encode (ecc)
// and tPROG (nand) stages whose means sum exactly to the end-to-end mean.
// The committed golden is regenerated with -update; the simulator is
// deterministic, so any diff is a real attribution change.
func TestWriteBreakdownGolden(t *testing.T) {
	cfg := VertexConfig()
	cfg.CachePolicy = "nocache"
	cfg.MultiPlane = false
	w, err := NewWorkload("SW", 4096, 1<<26, 800)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = 7
	res, err := Point{Config: cfg, Workload: w, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# no-cache SW 4KB write breakdown (us), vertex ECC, single-plane\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "stage", "mean", "p50", "p99")
	var sum float64
	for _, st := range Stages() {
		s := res.Stages.ByStage(st)
		fmt.Fprintf(&b, "%-8v %10.2f %10.2f %10.2f\n", st, s.MeanUS, s.P50US, s.P99US)
		sum += s.MeanUS
	}
	fmt.Fprintf(&b, "%-8s %10.2f\n", "sum", sum)
	fmt.Fprintf(&b, "%-8s %10.2f\n", "e2e", res.AllLat.MeanUS)

	// The golden also enforces the invariant directly, so a drifted file
	// cannot hide a broken sum.
	if diff := sum - res.AllLat.MeanUS; diff > 0.05 || diff < -0.05 {
		t.Errorf("stage mean sum %.3f != end-to-end mean %.3f", sum, res.AllLat.MeanUS)
	}
	goldenCompare(t, "write_breakdown.golden", b.String())
}
