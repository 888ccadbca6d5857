package dse

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestSpaceSizeAndEnumerate(t *testing.T) {
	s := Space{
		Channels:   []int{1, 2, 4},
		Ways:       []int{1, 2},
		HostIF:     []string{"sata2", "pcie-g2x8"},
		Patterns:   []trace.Pattern{trace.SeqWrite, trace.RandRead},
		BlockSizes: []int64{4096},
		SpanBytes:  1 << 26,
		Requests:   100,
	}
	if got := s.Size(); got != 24 {
		t.Fatalf("Size = %d, want 24", got)
	}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 24 {
		t.Fatalf("Enumerate returned %d points, want 24", len(pts))
	}
	seen := map[string]bool{}
	for i, pt := range pts {
		if pt.Index != int64(i) {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
		key := pt.Key()
		if seen[key] {
			t.Errorf("duplicate key for point %d", i)
		}
		seen[key] = true
		if err := pt.Config.Validate(); err != nil {
			t.Errorf("point %d invalid: %v", i, err)
		}
	}
	// Later-declared axes vary fastest: first two points differ only in
	// pattern.
	if pts[0].Workload.Pattern != trace.SeqWrite || pts[1].Workload.Pattern != trace.RandRead {
		t.Errorf("axis order: got patterns %v, %v", pts[0].Workload.Pattern, pts[1].Workload.Pattern)
	}
	if pts[0].Config.Channels != pts[1].Config.Channels {
		t.Errorf("channels changed before fastest axis exhausted")
	}
}

func TestSpaceDefaultsSinglePoint(t *testing.T) {
	var s Space
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("zero space enumerates %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.Config.Channels != 4 || pt.Mode != core.ModeFull {
		t.Errorf("zero space point not derived from defaults: %+v", pt.Config)
	}
	if pt.Workload.Requests == 0 || pt.Workload.SpanBytes == 0 {
		t.Errorf("workload defaults not applied: %+v", pt.Workload)
	}
}

func TestSpaceAtRejectsOutOfRange(t *testing.T) {
	s := Space{Channels: []int{1, 2}}
	if _, err := s.At(-1); err == nil {
		t.Error("At(-1) accepted")
	}
	if _, err := s.At(2); err == nil {
		t.Error("At(Size) accepted")
	}
}

func TestSpaceSizeOverflowIsAnError(t *testing.T) {
	// Four 2^16-value axes make 2^64 points (wrapping to 0 in int64); with
	// the fourth at 49,152 values the product wraps negative.
	wide := make([]int, 1<<16)
	for _, last := range []int{1 << 16, 49152} {
		s := Space{Channels: wide, Ways: wide, DiesPerWay: wide, DDRBuffers: make([]int, last)}
		if got := s.Size(); got != math.MaxInt64 {
			t.Errorf("last axis %d: Size = %d, want math.MaxInt64", last, got)
		}
		if pts, err := s.Sample(5, 1); err == nil {
			t.Errorf("last axis %d: Sample returned %d points and no error", last, len(pts))
		}
		if _, err := s.Enumerate(); err == nil {
			t.Errorf("last axis %d: Enumerate accepted an overflowing space", last)
		}
		if _, err := s.At(0); err == nil {
			t.Errorf("last axis %d: At accepted an overflowing space", last)
		}
	}
}

func TestSpaceInvalidPointSurfacesError(t *testing.T) {
	s := Space{Channels: []int{0}}
	if _, err := s.Enumerate(); err == nil {
		t.Error("invalid channel count not rejected")
	}
}

func TestSampleDeterministicAndDistinct(t *testing.T) {
	s := Space{
		Channels:   []int{1, 2, 4, 8},
		Ways:       []int{1, 2, 4},
		DiesPerWay: []int{1, 2, 4},
		HostIF:     []string{"sata2", "pcie-g2x8"},
		ECCScheme:  []string{"none", "fixed", "adaptive"},
	}
	if s.Size() != 216 {
		t.Fatalf("Size = %d, want 216", s.Size())
	}
	a, err := s.Sample(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sample(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different samples")
	}
	c, err := s.Sample(20, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical samples")
	}
	seen := map[int64]bool{}
	for _, pt := range a {
		if seen[pt.Index] {
			t.Fatalf("sample repeated index %d", pt.Index)
		}
		seen[pt.Index] = true
	}
	// Sampling the whole space degenerates to enumeration.
	all, err := s.Sample(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(all)) != s.Size() {
		t.Errorf("oversized sample returned %d points, want %d", len(all), s.Size())
	}
}

func TestKeyIgnoresNameButNotParameters(t *testing.T) {
	s := Space{Channels: []int{2, 4}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pts[0], pts[1]
	if a.Key() == b.Key() {
		t.Error("different channel counts share a key")
	}
	renamed := a
	renamed.Config.Name = "something-else"
	if renamed.Key() != a.Key() {
		t.Error("point name changed the content hash")
	}
	other := a
	other.Workload.Seed++
	if other.Key() == a.Key() {
		t.Error("workload seed not part of the content hash")
	}
	mode := a
	mode.Mode = core.ModeHostIdeal
	if mode.Key() == a.Key() {
		t.Error("mode not part of the content hash")
	}
	// Regression: Render once dropped cpu_model, so parametric and
	// firmware runs shared a cache key.
	fw := a
	fw.Config.CPUModel = "firmware"
	if fw.Key() == a.Key() {
		t.Error("CPU model not part of the content hash")
	}
}

func TestWorkloadShapeAxes(t *testing.T) {
	s := Space{
		WriteFracs: []float64{0, 0.3},
		Skews:      []workload.Skew{{}, {Kind: workload.SkewZipf, Theta: 0.99}},
		Arrivals:   []workload.Arrival{{}, {Kind: workload.ArrivalPoisson, RateIOPS: 20000}},
	}
	if got := s.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		key := pt.Key()
		if seen[key] {
			t.Fatalf("workload shape not in the content hash: duplicate key for %s", pt.Describe())
		}
		seen[key] = true
	}
	// Later-declared axes vary fastest: the first two points differ only in
	// the arrival process.
	if pts[0].Workload.Arrival.Kind != workload.ArrivalClosed ||
		pts[1].Workload.Arrival.Kind != workload.ArrivalPoisson {
		t.Fatalf("arrival axis order: %+v / %+v", pts[0].Workload.Arrival, pts[1].Workload.Arrival)
	}
	if pts[0].Workload.WriteFrac != pts[1].Workload.WriteFrac {
		t.Fatalf("mix changed before fastest axis exhausted")
	}
	// The richest point carries every shape.
	last := pts[7].Workload
	if last.WriteFrac != 0.3 || last.Skew.Kind != workload.SkewZipf || !last.Arrival.Open() {
		t.Fatalf("point 7 workload = %+v", last)
	}
}
