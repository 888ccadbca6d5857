package ftl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGreedyWAFKnownPoints(t *testing.T) {
	// More spare -> less amplification; limits behave sanely.
	w10, err := GreedyWAF(0.10)
	if err != nil {
		t.Fatal(err)
	}
	w28, err := GreedyWAF(0.28)
	if err != nil {
		t.Fatal(err)
	}
	w50, err := GreedyWAF(0.50)
	if err != nil {
		t.Fatal(err)
	}
	if !(w10 > w28 && w28 > w50 && w50 > 1) {
		t.Fatalf("WAF not decreasing in spare: %v %v %v", w10, w28, w50)
	}
	// Typical consumer OP (~7-13%) lands in the 3.5-5.5 range.
	w, _ := GreedyWAF(0.126)
	if w < 3.0 || w > 5.5 {
		t.Fatalf("WAF(0.126) = %v, outside plausible range", w)
	}
}

func TestGreedyWAFDomain(t *testing.T) {
	for _, sf := range []float64{0, 1, -0.5, 1.5} {
		if _, err := GreedyWAF(sf); err == nil {
			t.Errorf("sf=%v accepted", sf)
		}
	}
}

func TestModelAccounting(t *testing.T) {
	m, err := NewModel(3.0, 128)
	if err != nil {
		t.Fatal(err)
	}
	var copies, erases int
	const n = 12800
	for i := 0; i < n; i++ {
		c, e := m.OnUserWrite()
		copies += c
		erases += e
	}
	// WAF 3 -> 2 copies per user write; erases = WAF/pagesPerBlock.
	if copies != 2*n {
		t.Fatalf("copies %d want %d", copies, 2*n)
	}
	wantErases := int(3.0 / 128 * n)
	if erases < wantErases-1 || erases > wantErases+1 {
		t.Fatalf("erases %d want ~%d", erases, wantErases)
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(0.5, 128); err == nil {
		t.Fatal("WAF < 1 accepted")
	}
	if _, err := NewModel(2, 0); err == nil {
		t.Fatal("zero pages per block accepted")
	}
}

func TestForPattern(t *testing.T) {
	seq, err := ForPattern(false, 0.126)
	if err != nil || seq != 1.0 {
		t.Fatalf("sequential WAF %v err %v", seq, err)
	}
	rnd, err := ForPattern(true, 0.126)
	if err != nil || rnd <= 1.5 {
		t.Fatalf("random WAF %v err %v", rnd, err)
	}
}

// --- Mapper ---

func smallGeo() Geometry {
	return Geometry{Units: 4, BlocksPerUnit: 32, PagesPerBlock: 16}
}

func newMapper(t *testing.T, spare float64) *Mapper {
	t.Helper()
	g := smallGeo()
	logical := int64(float64(g.TotalPages()) * (1 - spare))
	m, err := NewMapper(g, logical)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPPNCompose(t *testing.T) {
	g := smallGeo()
	f := func(u, b, p uint8) bool {
		unit := int(u) % g.Units
		blk := int(b) % g.BlocksPerUnit
		pg := int(p) % g.PagesPerBlock
		uu, bb, pp := g.Decompose(g.Compose(unit, blk, pg))
		return uu == unit && bb == blk && pp == pg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapperBasicWriteRead(t *testing.T) {
	m := newMapper(t, 0.25)
	ops, err := m.Write(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != OpProgram {
		t.Fatalf("ops %+v", ops)
	}
	p, ok := m.Read(7)
	if !ok || p != ops[0].Target {
		t.Fatalf("read maps to %v, wrote %v", p, ops[0].Target)
	}
	if _, ok := m.Read(8); ok {
		t.Fatalf("unwritten page mapped")
	}
}

func TestMapperStriping(t *testing.T) {
	m := newMapper(t, 0.25)
	units := map[int]bool{}
	for lpn := int64(0); lpn < 4; lpn++ {
		ops, err := m.Write(lpn)
		if err != nil {
			t.Fatal(err)
		}
		u, _, _ := m.Geometry().Decompose(ops[0].Target)
		units[u] = true
	}
	if len(units) != 4 {
		t.Fatalf("consecutive writes hit %d units, want 4 (striping)", len(units))
	}
}

func TestMapperOverwriteInvalidates(t *testing.T) {
	m := newMapper(t, 0.25)
	ops1, _ := m.Write(3)
	ops2, _ := m.Write(3)
	old := ops1[0].Target
	p, ok := m.Read(3)
	if !ok || p != ops2[len(ops2)-1].Target || p == old {
		t.Fatalf("overwrite mapping wrong: %v old %v", p, old)
	}
}

func TestMapperTrim(t *testing.T) {
	m := newMapper(t, 0.25)
	m.Write(5)
	if err := m.Trim(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Read(5); ok {
		t.Fatalf("trimmed page still mapped")
	}
	if err := m.Trim(1 << 40); err == nil {
		t.Fatalf("out-of-range trim accepted")
	}
	if m.Stats.Trims != 1 {
		t.Fatalf("trim stat %d", m.Stats.Trims)
	}
}

func TestMapperSequentialWAFNearOne(t *testing.T) {
	m := newMapper(t, 0.25)
	logical := m.logicalPages
	// Three full sequential passes.
	for pass := 0; pass < 3; pass++ {
		for lpn := int64(0); lpn < logical; lpn++ {
			if _, err := m.Write(lpn); err != nil {
				t.Fatalf("pass %d lpn %d: %v", pass, lpn, err)
			}
		}
	}
	if waf := m.MeasuredWAF(); waf > 1.15 {
		t.Fatalf("sequential WAF %v, want ~1", waf)
	}
}

// TestMapperRandomWAFMatchesModel is the check on GreedyWAF: the page-mapped
// FTL under uniform random writes at steady state lands within 15 % of the
// analytic value.
func TestMapperRandomWAFMatchesModel(t *testing.T) {
	g := Geometry{Units: 2, BlocksPerUnit: 128, PagesPerBlock: 32}
	for _, spare := range []float64{0.15, 0.28} {
		logical := int64(float64(g.TotalPages()) * (1 - spare))
		m, err := NewMapper(g, logical)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(11)
		total := 10 * g.TotalPages()
		for i := int64(0); i < total; i++ {
			if _, err := m.Write(rng.Int63n(logical)); err != nil {
				t.Fatal(err)
			}
		}
		// Discard warmup by re-measuring over a second phase.
		m.Stats = Stats{}
		for i := int64(0); i < total/2; i++ {
			if _, err := m.Write(rng.Int63n(logical)); err != nil {
				t.Fatal(err)
			}
		}
		an, _ := GreedyWAF(spare)
		waf := m.MeasuredWAF()
		if rel := math.Abs(waf-an) / an; rel > 0.15 {
			t.Fatalf("spare %v: mapper WAF %v vs analytic %v (rel %v)", spare, waf, an, rel)
		}
	}
}

// TestMapperGCTerminates drives a geometry CheckSpace accepts but whose
// units drift apart under round-robin placement: after a sequential fill,
// uniform random writes leave one unit with nothing but fully valid blocks.
// Every write must return, with at most a unit's worth of ops, and the
// write that finds its unit full must fail with an error naming the unit
// instead of collecting it forever.
func TestMapperGCTerminates(t *testing.T) {
	g := Geometry{Units: 64, BlocksPerUnit: 8, PagesPerBlock: 128}
	logical := int64(float64(g.TotalPages()) * (1 - 0.3))
	m, err := NewMapper(g, logical)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < logical; lpn++ {
		if _, err := m.Write(lpn); err != nil {
			t.Fatalf("sequential fill, lpn %d: %v", lpn, err)
		}
	}
	rng := sim.NewRNG(7)
	maxOps := g.BlocksPerUnit*(g.PagesPerBlock+1) + 1
	var ops []Op
	for i := int64(0); i < 3*logical; i++ {
		ops, err = m.AppendWrite(ops[:0], rng.Int63n(logical))
		if err != nil {
			if !strings.Contains(err.Error(), "out of space") {
				t.Fatalf("random write %d: %v", i, err)
			}
			t.Logf("random write %d of %d: %v", i, 3*logical, err)
			return
		}
		if len(ops) > maxOps {
			t.Fatalf("random write %d emitted %d ops, more than a unit holds (%d)", i, len(ops), maxOps)
		}
	}
	t.Fatalf("%d random writes went through; the geometry no longer fills a unit", 3*logical)
}

// Shadow-model property: after any random mix of writes and trims, every
// mapped lpn resolves to the location of its most recent write, locations
// are unique, and per-block valid counters match the mapping.
func TestMapperConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := smallGeo()
		logical := int64(float64(g.TotalPages()) * 0.7)
		m, err := NewMapper(g, logical)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		shadow := map[int64]bool{}
		for step := 0; step < 3000; step++ {
			lpn := rng.Int63n(logical)
			if rng.Bool(0.85) {
				if _, err := m.Write(lpn); err != nil {
					return false
				}
				shadow[lpn] = true
			} else {
				if err := m.Trim(lpn); err != nil {
					return false
				}
				delete(shadow, lpn)
			}
		}
		// Mapping agreement + uniqueness.
		seen := map[PPN]bool{}
		for lpn := int64(0); lpn < logical; lpn++ {
			p, ok := m.Read(lpn)
			if ok != shadow[lpn] {
				return false
			}
			if ok {
				if seen[p] {
					return false // two lpns mapped to one ppn
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestMapperWearLeveling(t *testing.T) {
	g := Geometry{Units: 1, BlocksPerUnit: 64, PagesPerBlock: 16}
	logical := int64(float64(g.TotalPages()) * 0.7)
	m, err := NewMapper(g, logical)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	// Hammer a small hot set; dynamic wear leveling must keep the erase
	// spread bounded because allocation always picks the coldest block.
	for i := 0; i < 40000; i++ {
		if _, err := m.Write(rng.Int63n(logical / 8)); err != nil {
			t.Fatal(err)
		}
	}
	if m.MaxPE() == 0 {
		t.Fatalf("no GC happened")
	}
	if spread := m.MaxPE() - m.MinPE(); spread > m.MaxPE()/2+8 {
		t.Fatalf("wear spread too large: min %d max %d", m.MinPE(), m.MaxPE())
	}
}

func TestMapperGCOpOrdering(t *testing.T) {
	g := Geometry{Units: 1, BlocksPerUnit: 16, PagesPerBlock: 8}
	logical := int64(float64(g.TotalPages()) * 0.7)
	m, err := NewMapper(g, logical)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(6)
	sawGC := false
	for i := 0; i < 5000; i++ {
		ops, err := m.Write(rng.Int63n(logical))
		if err != nil {
			t.Fatal(err)
		}
		// The final op must be the user program; erases must follow the
		// copies of their block's reclamation.
		if ops[len(ops)-1].Kind != OpProgram {
			t.Fatalf("last op %v", ops[len(ops)-1].Kind)
		}
		for _, op := range ops[:len(ops)-1] {
			if op.Kind == OpProgram {
				t.Fatalf("stray user program mid-sequence")
			}
			if op.Kind != OpProgram {
				sawGC = true
			}
		}
	}
	if !sawGC {
		t.Fatalf("workload never triggered GC")
	}
}

func TestMapperValidation(t *testing.T) {
	g := smallGeo()
	if _, err := NewMapper(g, 0); err == nil {
		t.Fatal("zero logical accepted")
	}
	if _, err := NewMapper(g, g.TotalPages()); err == nil {
		t.Fatal("no-spare mapper accepted")
	}
	if _, err := NewMapper(Geometry{}, 10); err == nil {
		t.Fatal("bad geometry accepted")
	}
	m := newMapper(t, 0.25)
	if _, err := m.Write(-1); err == nil {
		t.Fatal("negative lpn accepted")
	}
	if _, err := m.Write(1 << 40); err == nil {
		t.Fatal("out-of-range lpn accepted")
	}
}
