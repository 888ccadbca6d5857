package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/nvme"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTenantReplay: a recorded trace plays as one tenant of a multi-queue
// scenario — the queue rebases its LBAs into the tenant's namespace, the
// victim keeps its own partition, and (the aggressor being the sole writer)
// the WAF model re-resolves from the replay stream's live classification.
// The same scenario must run on the sharded parallel core, where the
// first-touch preload executes on each die's owning domain.
func TestTenantReplay(t *testing.T) {
	aggPath := writeTrace(t, workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 600, Seed: 7,
	})
	base := workload.Spec{BlockSize: 4096, SpanBytes: 1 << 24, Seed: 3}
	dsl := fmt.Sprintf("agg:replay:%s|victim@high:400xRR", aggPath)
	set, err := nvme.ParseTenants(dsl, base)
	if err != nil {
		t.Fatal(err)
	}
	set.Policy = nvme.PolicyWRR

	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Parallel = parallel
			res, err := runTenantWorkload(cfg, set, ModeFull)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tenants) != 2 {
				t.Fatalf("want 2 tenant results, got %d", len(res.Tenants))
			}
			if got := res.Tenants[0].Completed; got != 600 {
				t.Errorf("replay tenant completed %d of 600", got)
			}
			if got := res.Tenants[1].Completed; got != 400 {
				t.Errorf("victim completed %d of 400", got)
			}
			if res.Tenants[1].AllLat.Ops == 0 || res.Tenants[1].AllLat.MeanUS <= 0 {
				t.Errorf("victim measured no latency: %+v", res.Tenants[1].AllLat)
			}
			if res.Fairness <= 0 || res.Fairness > 1 {
				t.Errorf("implausible fairness %v", res.Fairness)
			}
			// The sole writer replays sequential writes: live
			// reclassification must relax the model from the conservative
			// random default, leaving only the pre-flip warm-up residue.
			if res.WAF < 1 || res.WAF > 1.6 {
				t.Errorf("tenant replay WAF = %v, want ~1 after live relaxation", res.WAF)
			}
		})
	}
}

// TestTenantReplayEmptyTrace: an empty per-tenant trace is a legal
// degenerate stream — its queue drains immediately with zero completions
// while the other tenants run to completion.
func TestTenantReplayEmptyTrace(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := workload.Spec{BlockSize: 4096, SpanBytes: 1 << 22, Seed: 5}
	set, err := nvme.ParseTenants(fmt.Sprintf("idle:replay:%s|victim:300xRR", empty), base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTenantWorkload(config.Default(), set, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tenants[0].Completed; got != 0 {
		t.Errorf("empty-trace tenant completed %d commands", got)
	}
	if got := res.Tenants[1].Completed; got != 300 {
		t.Errorf("victim completed %d of 300", got)
	}
}

// TestTenantReplayOversizedTrace: a trace request reaching past the
// tenant's declared namespace must end the run with a clear error, never
// silently alias the request into a neighbour's partition.
func TestTenantReplayOversizedTrace(t *testing.T) {
	span := int64(1 << 20) // 2048 sectors
	reqs := []trace.Request{
		{Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{Op: trace.OpWrite, LBA: 4 * span / trace.SectorSize, Bytes: 4096},
	}
	path := filepath.Join(t.TempDir(), "big.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	base := workload.Spec{BlockSize: 4096, SpanBytes: span, Seed: 1}
	set, err := nvme.ParseTenants(fmt.Sprintf("big:replay:%s|peer:100xSW", path), base)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runTenantWorkload(config.Default(), set, ModeFull)
	if err == nil {
		t.Fatal("oversized tenant trace did not error")
	}
	if !strings.Contains(err.Error(), "namespace") {
		t.Errorf("error does not name the namespace violation: %v", err)
	}
}

// TestTenantReplayRequiresSpan: a replay tenant carries no request count to
// size a namespace from, so the set must reject a zero-span replay tenant
// at validation instead of laying out a zero-sector namespace.
func TestTenantReplayRequiresSpan(t *testing.T) {
	set := nvme.TenantSet{Tenants: []nvme.Tenant{
		{Name: "agg", Workload: workload.Spec{TracePath: "x.trace"}},
	}}
	if err := set.Validate(); err == nil {
		t.Fatal("zero-span replay tenant validated")
	} else if !strings.Contains(err.Error(), "span") {
		t.Errorf("error does not point at span: %v", err)
	}
}

// TestReplayNeverWrittenReads pins the two FTL answers to a replayed read
// of an LBA nothing ever wrote: the mapping FTL answers from the map
// without touching flash (zero-fill), while the span-abstraction FTL
// preloads the page on first touch and reads it from the array.
func TestReplayNeverWrittenReads(t *testing.T) {
	path := writeTrace(t, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 23, Requests: 200, Seed: 17,
	})

	t.Run("mapper", func(t *testing.T) {
		cfg, err := config.Preset("t3:C3")
		if err != nil {
			t.Fatal(err)
		}
		cfg.FTLMode = "mapper"
		cfg.MapperBlocksPerUnit = 6
		cfg.SpareFactor = 0.45
		res, err := runWorkload(cfg, workload.Spec{TracePath: path}, ModeFull)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 200 {
			t.Errorf("mapper replay completed %d of 200", res.Completed)
		}
		if res.FlashReads != 0 {
			t.Errorf("mapper FTL read flash %d times for never-written LBAs", res.FlashReads)
		}
	})

	t.Run("span", func(t *testing.T) {
		res, err := runWorkload(config.Default(), workload.Spec{TracePath: path}, ModeFull)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 200 {
			t.Errorf("span replay completed %d of 200", res.Completed)
		}
		if res.FlashReads == 0 {
			t.Error("span FTL dispatched no flash reads after first-touch preload")
		}
	})
}
