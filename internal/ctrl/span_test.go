package ctrl

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
	evtrace "repro/internal/telemetry/trace"
)

// TestWriteSpanStageSplit pins the batched program path's stage attribution
// on an uncontended die: prep time lands in the ECC stage, the granted ONFI
// window in the bus stage, tPROG in the NAND stage, and whatever die-queue
// wait remains in the channel stage — summing exactly to the op's lifetime.
func TestWriteSpanStageSplit(t *testing.T) {
	tim := nand.ProfileExplore()
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, tim)
	tim.JitterPct = 0 // newRig zeroes jitter on its own copy; mirror for math

	const prepDelay = 1 * sim.Millisecond
	prep := func(ready func()) { r.k.Schedule(prepDelay, ready) }
	var sp telemetry.Span
	sp.Start(0)
	var end sim.Time
	addrs := []nand.Addr{{Block: 0, Page: 0}}
	spans := []*telemetry.Span{&sp}
	if err := r.ch.Program(0, addrs, 4096, spans, 0, prep, func() { end = r.k.Now() }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if end == 0 {
		t.Fatal("write never completed")
	}
	if got := sp.Stage(telemetry.StageECC); got != prepDelay {
		t.Errorf("ecc stage %v, want prep delay %v", got, prepDelay)
	}
	busTime := tim.CommandOverhead() + tim.DataTransferTime(4096)
	if got := sp.Stage(telemetry.StageBus); got != busTime {
		t.Errorf("bus stage %v, want ONFI window %v", got, busTime)
	}
	if got := sp.Stage(telemetry.StageNAND); got != tim.TProgLower {
		t.Errorf("nand stage %v, want tPROG %v", got, tim.TProgLower)
	}
	if sp.Total() != end {
		t.Errorf("span total %v != completion time %v", sp.Total(), end)
	}
}

// TestWriteSpanBatchMixedCommands is the misattribution regression: a
// multi-plane batch carrying pages of two different commands must advance
// each command's own span — and both spans see the same shared intervals,
// summing to the batch's completion time.
func TestWriteSpanBatchMixedCommands(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	var spA, spB telemetry.Span
	spA.Start(0)
	spB.Start(0)
	addrs := []nand.Addr{{Plane: 0, Block: 0, Page: 0}, {Plane: 1, Block: 0, Page: 0}}
	spans := []*telemetry.Span{&spA, &spB}
	var end sim.Time
	if err := r.ch.Program(0, addrs, 4096, spans, 0, nil, func() { end = r.k.Now() }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if end == 0 {
		t.Fatal("batch never completed")
	}
	for name, sp := range map[string]*telemetry.Span{"A": &spA, "B": &spB} {
		if sp.Total() != end {
			t.Errorf("span %s total %v != completion %v", name, sp.Total(), end)
		}
		if sp.Stage(telemetry.StageBus) == 0 || sp.Stage(telemetry.StageNAND) == 0 {
			t.Errorf("span %s missing bus/nand attribution: %+v", name, sp)
		}
	}
	// Nil entries (e.g. GC pages riding a user batch) are skipped, not
	// dereferenced.
	var spC telemetry.Span
	spC.Start(r.k.Now())
	addrs2 := []nand.Addr{{Plane: 0, Block: 1, Page: 0}, {Plane: 1, Block: 1, Page: 0}}
	if err := r.ch.Program(0, addrs2, 4096, []*telemetry.Span{&spC, nil}, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if spC.Total() == 0 {
		t.Error("non-nil span in a mixed list saw no attribution")
	}
}

// TestWriteMultiPrepSpanValidation: a span list must match the address list.
func TestWriteMultiPrepSpanValidation(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	var sp telemetry.Span
	addrs := []nand.Addr{{Block: 0, Page: 0}, {Plane: 1, Block: 0, Page: 0}}
	if err := r.ch.Program(0, addrs, 4096, []*telemetry.Span{&sp}, 0, nil, nil); err == nil {
		t.Fatal("mismatched span count accepted")
	}
}

// TestWriteSpanListsAreCopied: the controller must copy addrs and spans at
// call time so callers can reuse their scratch buffers while ops are queued.
func TestWriteSpanListsAreCopied(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	var spA telemetry.Span
	spA.Start(0)
	addrs := make([]nand.Addr, 1)
	spans := make([]*telemetry.Span, 1)
	addrs[0] = nand.Addr{Block: 0, Page: 0}
	spans[0] = &spA
	if err := r.ch.Program(0, addrs, 4096, spans, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Scribble the scratch while the op is still queued: an aliasing
	// controller would try to program the (illegally out-of-order) page and
	// panic, and would advance the wrong span.
	addrs[0] = nand.Addr{Block: 9, Page: 9}
	spans[0] = nil
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("controller read the caller's mutated scratch: %v", rec)
		}
	}()
	r.k.RunAll()
	if spA.Total() == 0 {
		t.Error("span captured at call time saw no attribution")
	}
}

// benchRig builds a one-die channel without testing.T plumbing.
func benchRig(tb testing.TB) *rig {
	k := sim.NewKernel()
	bus, err := amba.NewBus(k, amba.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := bus.AttachMaster("ppdma0")
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := dram.New(k, 0, dram.DDR2_800x16(64<<20))
	if err != nil {
		tb.Fatal(err)
	}
	tim := nand.ProfileExplore()
	tim.JitterPct = 0
	geo := nand.SmallGeometry()
	ch, err := New(k, 0, Config{Ways: 1, DiesPerWay: 1}, &geo, &tim, m, buf, sim.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	return &rig{k: k, bus: bus, buf: buf, ch: ch}
}

// dieBatches precomputes every legal multi-plane batch of one die in
// program order (so measured laps issue from a fixed address list and the
// harness itself allocates nothing).
func dieBatches(geo nand.Geometry) [][]nand.Addr {
	alloc := NewPageAllocator(1, geo)
	n := geo.BlocksPerPlane * geo.PagesPerBlock
	out := make([][]nand.Addr, 0, n)
	for i := 0; i < n; i++ {
		addrs, _ := alloc.Batch(0, geo.PlanesPerDie, nil, nil)
		out = append(out, addrs)
	}
	return out
}

// writeSpanLap programs `n` consecutive multi-plane batches (with spans)
// starting at *cursor and drains the kernel.
func writeSpanLap(tb testing.TB, r *rig, batches [][]nand.Addr, cursor *int, spans []*telemetry.Span, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		for _, sp := range spans {
			sp.Start(r.k.Now())
		}
		if err := r.ch.Program(0, batches[*cursor], 4096, spans, 0, nil, nil); err != nil {
			tb.Fatal(err)
		}
		*cursor++
	}
	r.k.RunAll()
}

// eraseDie reclaims every block so a new lap can program the same pages
// (keeping the die's lazily-allocated page state warm).
func eraseDie(tb testing.TB, r *rig) {
	tb.Helper()
	geo := r.ch.Die(0).Geometry()
	for p := 0; p < geo.PlanesPerDie; p++ {
		for b := 0; b < geo.BlocksPerPlane; b++ {
			if err := r.ch.Erase(0, p, b, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	r.k.RunAll()
}

// TestWriteSpanBatchZeroAllocs is the PR 2 discipline applied to the span-
// threaded program path: once the pools are warm, issuing multi-plane span
// batches through the controller — ONFI bus, DRAM prefetch, AHB DMA, array
// program, per-page watermark advances — allocates nothing.
func TestWriteSpanBatchZeroAllocs(t *testing.T) {
	r := benchRig(t)
	geo := nand.SmallGeometry()
	var spA, spB telemetry.Span
	spans := []*telemetry.Span{&spA, &spB}
	batches := dieBatches(geo)

	// Warm every pool (die page state, op pool, the kernel's event heap,
	// server/DMA/DRAM free lists) with a full-die lap, then erase for the
	// measured lap.
	cursor := 0
	writeSpanLap(t, r, batches, &cursor, spans, len(batches))
	eraseDie(t, r)

	cursor = 0
	const perRun = 8
	runs := 0
	avg := testing.AllocsPerRun(10, func() {
		runs++
		if runs*perRun > len(batches) {
			t.Fatalf("measured laps exceeded die capacity (%d runs)", runs)
		}
		writeSpanLap(t, r, batches, &cursor, spans, perRun)
	})
	if avg != 0 {
		t.Fatalf("batched program path allocated %.1f times per %d-batch lap, want 0", avg, perRun)
	}
}

// TestWriteSpanBatchZeroAllocsTracingOff pins the tracing hooks' cost
// contract from both sides. With no tracer attached (the default), the
// instrumented program path must still allocate nothing — the hooks are one
// nil check each. And with an aggregates-only tracer attached (utilization
// timelines, no raw event buffer), the steady-state path must also allocate
// nothing: interval and depth recording update preallocated counters and
// fixed-memory timeline bins in place.
func TestWriteSpanBatchZeroAllocsTracingOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		attach bool
	}{
		{"no-tracer", false},
		{"aggregates-only", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := benchRig(t)
			if tc.attach {
				r.ch.SetTracer(evtrace.New(evtrace.Options{}))
			}
			geo := nand.SmallGeometry()
			var spA, spB telemetry.Span
			spans := []*telemetry.Span{&spA, &spB}
			batches := dieBatches(geo)
			cursor := 0
			writeSpanLap(t, r, batches, &cursor, spans, len(batches))
			eraseDie(t, r)
			cursor = 0
			const perRun = 8
			runs := 0
			avg := testing.AllocsPerRun(10, func() {
				runs++
				if runs*perRun > len(batches) {
					t.Fatalf("measured laps exceeded die capacity (%d runs)", runs)
				}
				writeSpanLap(t, r, batches, &cursor, spans, perRun)
			})
			if avg != 0 {
				t.Fatalf("program path with %s allocated %.1f times per %d-batch lap, want 0",
					tc.name, avg, perRun)
			}
		})
	}
}

// BenchmarkWriteSpanBatch measures the span-threaded batched program path
// end to end (bus, prefetch, program, watermark advances). Allocation
// regressions on this hot path surface in the CI bench smoke job's
// allocs/op column.
func BenchmarkWriteSpanBatch(b *testing.B) {
	r := benchRig(b)
	geo := nand.SmallGeometry()
	var spA, spB telemetry.Span
	spans := []*telemetry.Span{&spA, &spB}
	batches := dieBatches(geo)
	cursor := 0
	writeSpanLap(b, r, batches, &cursor, spans, len(batches)) // warm pools
	eraseDie(b, r)
	cursor = 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if cursor == len(batches) {
			b.StopTimer()
			eraseDie(b, r)
			cursor = 0
			b.StartTimer()
		}
		writeSpanLap(b, r, batches, &cursor, spans, 1)
	}
}
