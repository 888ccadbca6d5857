package workload

import (
	"testing"

	"repro/internal/trace"
)

// TestPhasedPhaseIndex: a phase chain reports the phase of the last
// returned request.
func TestPhasedPhaseIndex(t *testing.T) {
	spec := Spec{Phases: []Spec{
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 3, Seed: 1},
		{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 2, Seed: 1},
	}}
	g, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Phased() {
		t.Fatal("declared phase chain reports no phases")
	}
	want := []int{0, 0, 0, 1, 1}
	for i, w := range want {
		if _, ok := g.Next(); !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if got := g.Phase(); got != w {
			t.Errorf("request %d phase = %d, want %d", i, got, w)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatal("stream too long")
	}
	// A plain spec compiles to a one-phase chain that declares no phases.
	plain, err := Spec{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 2, Seed: 1}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Phased() {
		t.Error("plain synthetic stream claims declared phases")
	}
}

// TestPhasedLiveClassification: a declared phase chain exposes a live
// windowed classifier (a plain synthetic stream exposes none), and a seq-fill -> random-overwrite chain flips the windowed
// regime mid-stream — the hook the platform uses to adapt the WAF model.
func TestPhasedLiveClassification(t *testing.T) {
	const fill, overwrite = 2048, 2048
	spec := Spec{Phases: []Spec{
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: fill, Seed: 1},
		{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: overwrite, Seed: 1},
	}}
	g, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	cls := g.Classification()
	if cls == nil {
		t.Fatal("phase chain does not classify itself")
	}
	if plain, _ := spec.Phases[0].Stream(); plain.Classification() != nil {
		t.Fatal("plain synthetic stream classifies itself")
	}
	// Drain the fill phase: the trailing window must classify sequential.
	for i := 0; i < fill; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatalf("stream ended during fill at %d", i)
		}
	}
	if !cls.Confident() || cls.RandomWrites() {
		t.Fatalf("after seq fill: confident=%v random=%v, want true/false", cls.Confident(), cls.RandomWrites())
	}
	// Drain the overwrite phase: the window must flip to random.
	for i := 0; i < overwrite; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatalf("stream ended during overwrite at %d", i)
		}
	}
	if !cls.RandomWrites() {
		t.Fatal("after random overwrite the trailing window still classifies sequential")
	}
}
