package core

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/nvme"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWriteStageSumInvariant is the acceptance invariant for the threaded
// write path: per-stage means must sum exactly to the end-to-end mean (up to
// unit-conversion rounding) under mixed batch sizes and plane counts — the
// regimes where the old folded attribution could not tell commands apart.
func TestWriteStageSumInvariant(t *testing.T) {
	nocache := func(cfg config.Platform) config.Platform {
		cfg.CachePolicy = "nocache"
		cfg.MultiPlane = false
		return cfg
	}
	multiPlane := func(cfg config.Platform) config.Platform {
		cfg.MultiPlane = true
		cfg.CachePolicy = "cache"
		return cfg
	}
	mapper := func(cfg config.Platform) config.Platform {
		cfg.FTLMode = "mapper"
		cfg.MapperBlocksPerUnit = 64
		return cfg
	}
	sw := func(block int64, reqs int) workload.Spec {
		return workload.Spec{Pattern: trace.SeqWrite, BlockSize: block, SpanBytes: 1 << 26, Requests: reqs, Seed: 7}
	}
	rw := func(block int64, reqs int) workload.Spec {
		return workload.Spec{Pattern: trace.RandWrite, BlockSize: block, SpanBytes: 1 << 25, Requests: reqs, Seed: 7}
	}
	cases := map[string]struct {
		cfg config.Platform
		w   workload.Spec
	}{
		"nocache-4k":          {nocache(config.Default()), sw(4096, 500)},
		"nocache-16k":         {nocache(config.Default()), sw(16384, 300)},
		"nocache-ecc":         {nocache(config.Vertex()), sw(4096, 500)},
		"multiplane-cache-4k": {multiPlane(config.Vertex()), sw(4096, 800)},
		"multiplane-rand-gc":  {multiPlane(config.Vertex()), rw(4096, 800)},
		"single-plane-cache":  {func() config.Platform { c := config.Default(); c.MultiPlane = false; return c }(), sw(4096, 500)},
		"mapper-ftl":          {mapper(config.Default()), rw(4096, 400)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(tc.cfg, tc.w, ModeFull)
			if err != nil {
				t.Fatal(err)
			}
			if res.WriteLat.Ops == 0 {
				t.Fatal("no write latency measured")
			}
			sum := res.Stages.SumMeanUS()
			if diff := math.Abs(sum - res.AllLat.MeanUS); diff > 0.05 {
				t.Errorf("stage means sum to %.3fus, end-to-end mean %.3fus (diff %.4f)",
					sum, res.AllLat.MeanUS, diff)
			}
		})
	}
}

// TestWriteStageSplitDistinct pins the headline fix: on a path where the
// program is on the host-visible critical path (no-cache buffer policy),
// write commands report distinct die-queue (chan), ONFI bus, encode (ecc)
// and tPROG (nand) stages instead of one folded flash interval.
func TestWriteStageSplitDistinct(t *testing.T) {
	cfg := config.Vertex() // ECC enabled: the encode prep is a real stage
	cfg.CachePolicy = "nocache"
	cfg.MultiPlane = false
	res, err := runWorkload(cfg, workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 600, Seed: 7,
	}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stages
	for name, mean := range map[string]float64{
		"chan": s.Chan.MeanUS, "bus": s.Bus.MeanUS, "ecc": s.ECC.MeanUS, "nand": s.NAND.MeanUS,
	} {
		if mean <= 0 {
			t.Errorf("write stage %s empty: %+v", name, mean)
		}
	}
	// tPROG dominates; the ONFI window must be the 4 KiB data-in time scale,
	// well apart from both the array time and the queue wait.
	if s.NAND.MeanUS < 10*s.Bus.MeanUS {
		t.Errorf("nand %.1fus not dominating bus %.1fus: write interval still folded?", s.NAND.MeanUS, s.Bus.MeanUS)
	}
	if diff := math.Abs(s.SumMeanUS() - res.AllLat.MeanUS); diff > 0.05 {
		t.Errorf("split breakdown no longer sums: %.3f vs %.3f", s.SumMeanUS(), res.AllLat.MeanUS)
	}
}

// TestPhaseProfilesPerPhase: a precondition -> measure scenario must report
// BOTH phases' stage breakdowns — the unrecorded precondition included —
// with each phase's stage means summing to that phase's end-to-end mean.
func TestPhaseProfilesPerPhase(t *testing.T) {
	res, err := runWorkload(config.Default(), phasePair(300, 200, false, true), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phase profiles = %d, want 2 (got %+v)", len(res.Phases), res.Phases)
	}
	pre, meas := res.Phases[0], res.Phases[1]
	if pre.Recorded || !meas.Recorded {
		t.Errorf("record flags wrong: pre=%v meas=%v", pre.Recorded, meas.Recorded)
	}
	if pre.Ops != 300 || meas.Ops != 200 {
		t.Errorf("phase ops = %d/%d, want 300/200", pre.Ops, meas.Ops)
	}
	if pre.Label == "" || meas.Label == "" {
		t.Errorf("phase labels missing: %q / %q", pre.Label, meas.Label)
	}
	for _, ph := range res.Phases {
		if diff := math.Abs(ph.Stages.SumMeanUS() - ph.All.MeanUS); diff > 0.05 {
			t.Errorf("phase %d stage sum %.3f != mean %.3f", ph.Index, ph.Stages.SumMeanUS(), ph.All.MeanUS)
		}
	}
	// The window breakdown still covers only the measured phase.
	if res.AllLat.Ops != 200 {
		t.Errorf("window ops = %d, want 200", res.AllLat.Ops)
	}
	// The write precondition's profile must carry real stage attribution
	// even though it never entered the measured window. (Cached writes
	// complete at DRAM landing, so the DRAM stage — not NAND — is the
	// guaranteed flash-side component.)
	if pre.Stages.DRAM.MeanUS <= 0 {
		t.Error("precondition phase has no DRAM attribution")
	}
	// Single-phase runs carry no profiles — Stages covers them.
	single, err := runWorkload(config.Default(), workload.Spec{
		Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 200, Seed: 7,
	}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Phases) != 0 {
		t.Errorf("single-phase run exported %d phase profiles", len(single.Phases))
	}
}

// TestPhaseProfilesSurviveWindowResets: measure -> precondition -> measure
// resets the window twice, but all three phases keep their own profile.
func TestPhaseProfilesSurviveWindowResets(t *testing.T) {
	mk := func(p trace.Pattern, reqs int, rec bool) workload.Spec {
		return workload.Spec{
			Pattern: p, BlockSize: 4096, SpanBytes: 1 << 26,
			Requests: reqs, Seed: 7, Record: rec,
		}
	}
	w := workload.Spec{Phases: []workload.Spec{
		mk(trace.SeqRead, 150, true),
		mk(trace.SeqWrite, 100, false),
		mk(trace.SeqRead, 75, true),
	}}
	res, err := runWorkload(config.Default(), w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phase profiles = %d, want 3", len(res.Phases))
	}
	for i, want := range []uint64{150, 100, 75} {
		if res.Phases[i].Ops != want {
			t.Errorf("phase %d ops = %d, want %d", i, res.Phases[i].Ops, want)
		}
	}
	if res.AllLat.Ops != 75 {
		t.Errorf("window ops = %d, want 75 (reset semantics unchanged)", res.AllLat.Ops)
	}
}

// TestTenantPhaseProfiles: multi-queue runs carry per-tenant phase profiles.
func TestTenantPhaseProfiles(t *testing.T) {
	set, err := nvme.ParseTenants("phased:400xSW;300xSR,record | plain:500xSR",
		workload.Spec{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTenantWorkload(config.Default(), set, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	if got := len(res.Tenants[0].Phases); got != 2 {
		t.Fatalf("phased tenant has %d phase profiles, want 2", got)
	}
	if res.Tenants[0].Phases[0].Recorded || !res.Tenants[0].Phases[1].Recorded {
		t.Errorf("phased tenant record flags wrong: %+v", res.Tenants[0].Phases)
	}
	if got := len(res.Tenants[1].Phases); got != 0 {
		t.Errorf("single-phase tenant exported %d phase profiles", got)
	}
}

// TestSyntheticPhaseWAFShift: a seq-fill -> random-overwrite phase chain
// must see the WAF abstraction shift mid-run via live reclassification —
// previously the scenario-level classification pinned it for the whole run.
func TestSyntheticPhaseWAFShift(t *testing.T) {
	mkPhases := func(fill, overwrite int) workload.Spec {
		return workload.Spec{Phases: []workload.Spec{
			{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 25, Requests: fill, Seed: 7},
			{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 25, Requests: overwrite, Seed: 7},
		}}
	}
	shifted, err := runWorkload(config.Default(), mkPhases(2000, 2000), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	// The fill half must run at the sequential model (no GC), the overwrite
	// half at the random model, so the observed amplification sits strictly
	// between 1 and the steady-state random constant.
	randOnly, err := runWorkload(config.Default(), workload.Spec{
		Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 25, Requests: 2000, Seed: 7,
	}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.WAF <= 1.02 {
		t.Errorf("phase chain WAF %.3f never tightened for the random phase", shifted.WAF)
	}
	if shifted.WAF >= randOnly.WAF-0.05 {
		t.Errorf("phase chain WAF %.3f not relaxed during the sequential fill (rand-only %.3f)",
			shifted.WAF, randOnly.WAF)
	}
	// Whole-chain GC accounting: copies happened (random phase) but far
	// fewer than a random-only run of the same total volume would inject.
	if shifted.GCCopies == 0 {
		t.Error("no GC copies injected after the regime shift")
	}
}
