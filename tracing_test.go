package ssdx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	evtrace "repro/internal/telemetry/trace"
)

// TestUtilizationAgreesWithDieWatermarks cross-checks the two independent
// busy-time accountings on the write-breakdown golden config: the tracing
// layer's per-die utilization timeline (recorded from controller-issued
// intervals) must agree with each die model's own always-on busy watermark
// (ReadTime+ProgramTime+EraseTime). The two paths share no code — the die
// counters accumulate inside the NAND model, the timeline inside the tracer
// — so agreement pins the instrumentation, not the model.
func TestUtilizationAgreesWithDieWatermarks(t *testing.T) {
	cfg := VertexConfig()
	cfg.CachePolicy = "nocache"
	cfg.MultiPlane = false
	w, err := NewWorkload("SW", 4096, 1<<26, 800)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = 7
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableTracing(evtrace.Options{})
	res, err := p.Run(w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization == nil {
		t.Fatal("traced run carries no utilization report")
	}
	simEnd := float64(res.SimTime)
	if simEnd <= 0 {
		t.Fatal("no simulated time")
	}

	util := make(map[string]float64)
	for _, r := range res.Utilization.Resources {
		if r.Kind == "die" {
			util[r.Name] = r.BusyFrac
		}
	}
	const tol = 0.01 // absolute busy-fraction tolerance
	var sumWatermark float64
	dies := 0
	for ci, ch := range p.Channels {
		for d := 0; d < p.Cfg.Ways*p.Cfg.DiesPerWay; d++ {
			st := ch.Die(d).Stats
			if got := st.ReadTime + st.ProgramTime + st.EraseTime; got != st.BusyTime {
				t.Errorf("ch%d die%d: per-kind busy %v != total busy %v", ci, d, got, st.BusyTime)
			}
			watermark := float64(st.BusyTime) / simEnd
			sumWatermark += watermark
			dies++
			name := fmt.Sprintf("ch%d-die%d", ci, d)
			got, ok := util[name]
			if !ok {
				t.Fatalf("no utilization row for %s", name)
			}
			if math.Abs(got-watermark) > tol {
				t.Errorf("%s: timeline busy frac %.4f, die watermark %.4f (tol %.2f)",
					name, got, watermark, tol)
			}
		}
	}
	if dies == 0 {
		t.Fatal("no dies inspected")
	}
	if mean := sumWatermark / float64(dies); math.Abs(res.Utilization.NANDUtil-mean) > tol {
		t.Errorf("NANDUtil %.4f, mean die watermark %.4f (tol %.2f)",
			res.Utilization.NANDUtil, mean, tol)
	}
	// A sequential-write run keeps dies busy: the agreement must be about
	// real work, not two zeroes matching.
	if res.Utilization.NANDUtil < 0.05 {
		t.Errorf("NANDUtil %.4f suspiciously idle for a no-cache SW run", res.Utilization.NANDUtil)
	}
}

// TestGCFracAttribution forces real garbage collection (page-mapped FTL,
// random overwrites over a small managed region) and checks the stage-
// attributed GC accounting: the utilization report must attribute a non-zero
// share of die busy time to GC reads/programs, and per-resource op mixes
// must carry the gc_read/gc_program keys.
func TestGCFracAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: GC needs a long random-overwrite run")
	}
	cfg := VertexConfig()
	cfg.FTLMode = "mapper"
	cfg.SpareFactor = 0.35
	cfg.MapperBlocksPerUnit = 6
	w, err := NewWorkload("RW", 4096, 96<<20, 40000)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = 7
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableTracing(evtrace.Options{})
	res, err := p.Run(w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCCopies == 0 {
		t.Fatal("run never collected; the attribution has nothing to attribute")
	}
	u := res.Utilization
	if u == nil {
		t.Fatal("no utilization report")
	}
	if u.GCFrac <= 0 || u.GCFrac >= 1 {
		t.Fatalf("GCFrac %.4f, want in (0,1) for a GC-heavy run", u.GCFrac)
	}
	gcKeys := 0
	for _, r := range u.Resources {
		if r.Kind != "die" {
			continue
		}
		if r.OpFrac["gc_read"] > 0 || r.OpFrac["gc_program"] > 0 {
			gcKeys++
		}
	}
	if gcKeys == 0 {
		t.Fatal("no die attributes any busy time to GC op kinds")
	}
}

// TestPerfettoExportGoldenDeterminism pins the Perfetto exporter end to end:
// a fixed-seed run must serialize to byte-identical JSON on every execution,
// and the committed golden (regenerated with -update) catches any drift in
// event order, timestamps or format. The workload is deliberately tiny so
// the golden stays reviewable.
func TestPerfettoExportGoldenDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.Ways = 1
	cfg.DiesPerWay = 2
	cfg.DDRBuffers = 1
	w, err := NewWorkload("SW", 4096, 1<<22, 60)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = 7
	export := func() string {
		var tr *Tracer
		_, err := Point{Config: cfg, Workload: w, Mode: ModeFull}.Run(func(p *Platform) {
			tr = p.EnableTracing(TraceOptions{Events: true})
		})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tr.WritePerfetto(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, two := export(), export()
	if one != two {
		t.Fatal("two identical traced runs exported different Perfetto JSON")
	}
	if !json.Valid([]byte(one)) {
		t.Fatal("Perfetto export is not valid JSON")
	}
	goldenCompare(t, "perfetto_small.golden", one)
}

// TestNoisyNeighborPerfettoValid exports a fixed-seed noisy-neighbor tenant
// scenario and checks the trace is valid JSON carrying the tracks the
// isolation analysis needs: die occupancy rows and one submission-queue
// depth counter per tenant.
func TestNoisyNeighborPerfettoValid(t *testing.T) {
	cfg := VertexConfig()
	base := Workload{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
	set, err := ParseTenants("victim@high:300xRR | noisy*4:1200xSW", base)
	if err != nil {
		t.Fatal(err)
	}
	set.Policy = PolicyPrio
	var tr *Tracer
	res, err := Point{Config: cfg, Tenants: set.Tenants, Policy: set.Policy, Mode: ModeFull}.Run(func(p *Platform) {
		tr = p.EnableTracing(TraceOptions{Events: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatal("Perfetto export is not valid JSON")
	}
	out := b.String()
	for _, want := range []string{`"die:ch0-die0"`, `"sq:victim"`, `"sq:noisy"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing track %s", want)
		}
	}
	if res.Utilization == nil || res.Utilization.NANDUtil <= 0 {
		t.Error("tenant run missing utilization aggregates")
	}
	for _, tn := range res.Tenants {
		if tn.SQDepthPeak <= 0 {
			t.Errorf("tenant %s: no submission-queue depth samples", tn.Name)
		}
	}
}
