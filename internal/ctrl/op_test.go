package ctrl

import (
	"strings"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestFreshDieOpAllocs bounds what building a die op costs when the pool
// is empty: the record and its three bound callbacks.
func TestFreshDieOpAllocs(t *testing.T) {
	ch := benchRig(t).ch
	if avg := testing.AllocsPerRun(100, func() { ch.getOp() }); avg > 4 {
		t.Fatalf("a fresh die op costs %.1f allocations, want at most 4", avg)
	}
}

// TestOpPoolCapped queues 10,000 reads on one channel at once and checks
// that, once they drain, the op pool keeps at most sim.PoolCap of the ops
// the burst built.
func TestOpPoolCapped(t *testing.T) {
	tim := nand.ProfileExplore()
	r := newRig(t, Config{Ways: 2, DiesPerWay: 2}, tim)
	a := nand.Addr{Block: 3, Page: 1}
	for d := 0; d < len(r.ch.dies); d++ {
		if err := r.ch.Die(d).Preload(a); err != nil {
			t.Fatal(err)
		}
	}
	const reads = 10000
	done := 0
	for i := 0; i < reads; i++ {
		if err := r.ch.Read(i%len(r.ch.dies), a, 4096, nil, false, func() { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	r.k.RunAll()
	if done != reads {
		t.Fatalf("%d of %d reads completed", done, reads)
	}
	pooled := 0
	for r.ch.opPool.Take() != nil {
		pooled++
	}
	if pooled > sim.PoolCap {
		t.Fatalf("op pool holds %d ops after the burst, want at most %d", pooled, sim.PoolCap)
	}
}

// TestOpStepOutOfOrder checks that a callback arriving at a step with no
// callback pending panics instead of running the wrong step.
func TestOpStepOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		step opStep
		call func(op *dieOp)
	}{
		{"step-at-grant", stepGrant, func(op *dieOp) { op.stepFn() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := benchRig(t).ch.getOp()
			op.kind, op.step = opRead, tc.step
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "callback at step") {
					t.Fatalf("recovered %q, want an out-of-order panic", msg)
				}
			}()
			tc.call(op)
		})
	}
}

// BenchmarkChannelReadCycle measures one page read of a touched page
// through every read step: SRAM slot, command cycles, array sense,
// data-out, the PP-DMA push and the DRAM landing, with a span attached.
// Once the pools are warm it allocates nothing.
func BenchmarkChannelReadCycle(b *testing.B) {
	r := benchRig(b)
	a := nand.Addr{Block: 2, Page: 5}
	if err := r.ch.Die(0).Preload(a); err != nil {
		b.Fatal(err)
	}
	var sp telemetry.Span
	read := func() {
		sp.Start(r.k.Now())
		if err := r.ch.Read(0, a, 4096, &sp, false, nil); err != nil {
			b.Fatal(err)
		}
		r.k.RunAll()
	}
	for i := 0; i < 64; i++ {
		read() // warm the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		read()
	}
}
