package nand

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func newTestDie(t *testing.T) (*sim.Kernel, *Die) {
	t.Helper()
	k := sim.NewKernel()
	tim := ProfileExplore()
	tim.JitterPct = 0 // deterministic timing for assertions
	geo := SmallGeometry()
	d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestGeometryCapacity(t *testing.T) {
	g := DefaultGeometry()
	if g.PagesPerDie() != 2*2048*128 {
		t.Fatalf("pages per die %d", g.PagesPerDie())
	}
	if g.DieBytes() != 2*2048*128*4096 {
		t.Fatalf("die bytes %d", g.DieBytes())
	}
	if g.RawPageBytes() != 4096+224 {
		t.Fatalf("raw page %d", g.RawPageBytes())
	}
}

func TestTimingProfiles(t *testing.T) {
	for _, tim := range []Timing{ProfileExplore(), ProfileVertex()} {
		if err := tim.Validate(); err != nil {
			t.Fatalf("profile invalid: %v", err)
		}
	}
	e := ProfileExplore()
	if mb := e.BusMBps(); mb < 24 || mb > 26 {
		t.Fatalf("explore bus rate %v MB/s, want ~25", mb)
	}
	v := ProfileVertex()
	if mb := v.BusMBps(); mb < 160 || mb > 172 {
		t.Fatalf("vertex bus rate %v MB/s, want ~166", mb)
	}
	if v.DataTransferTime(4096) != 4096*6*sim.Nanosecond {
		t.Fatalf("transfer time wrong")
	}
	if e.CommandOverhead() != (2+5)*40*sim.Nanosecond {
		t.Fatalf("command overhead %v", e.CommandOverhead())
	}
}

func TestProgramReadEraseCycle(t *testing.T) {
	k, d := newTestDie(t)
	a := Addr{Plane: 0, Block: 3, Page: 0}

	// Reading an unwritten page is a protocol violation.
	if _, err := d.Read(a, nil); err != ErrNotProgrammed {
		t.Fatalf("read unwritten: %v", err)
	}

	done := false
	dur, err := d.Program(a, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	if dur != 3*sim.Millisecond {
		t.Fatalf("tPROG = %v", dur)
	}
	if d.Ready() {
		t.Fatalf("die should be busy during program")
	}
	k.RunAll()
	if !done || !d.Ready() {
		t.Fatalf("program completion not signalled")
	}

	if ok, _ := d.PageProgrammed(a); !ok {
		t.Fatalf("page not marked programmed")
	}

	rd := false
	rdur, err := d.Read(a, func() { rd = true })
	if err != nil {
		t.Fatal(err)
	}
	if rdur != 60*sim.Microsecond {
		t.Fatalf("tREAD = %v", rdur)
	}
	k.RunAll()
	if !rd {
		t.Fatalf("read completion not signalled")
	}

	// Rewrite without erase must fail.
	if _, err := d.Program(a, nil); err != ErrNotErased {
		t.Fatalf("overwrite: %v", err)
	}

	if _, err := d.EraseBlock(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if d.BlockPE(0, 3) != 1 {
		t.Fatalf("PE count %d", d.BlockPE(0, 3))
	}
	if ok, _ := d.PageProgrammed(a); ok {
		t.Fatalf("erase did not clear page")
	}
	if _, err := d.Program(a, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestSequentialProgramConstraint(t *testing.T) {
	k, d := newTestDie(t)
	// Page 1 before page 0 violates MLC ordering.
	if _, err := d.Program(Addr{0, 0, 1}, nil); err != ErrOutOfOrder {
		t.Fatalf("out of order: %v", err)
	}
	if _, err := d.Program(Addr{0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if _, err := d.Program(Addr{0, 0, 1}, nil); err != nil {
		t.Fatalf("in-order program failed: %v", err)
	}
	k.RunAll()
}

func TestBusyRejection(t *testing.T) {
	k, d := newTestDie(t)
	if _, err := d.Program(Addr{0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(Addr{0, 1, 0}, nil); err != ErrBusy {
		t.Fatalf("busy program: %v", err)
	}
	if _, err := d.Read(Addr{0, 0, 0}, nil); err != ErrBusy {
		t.Fatalf("busy read: %v", err)
	}
	if _, err := d.EraseBlock(0, 0, nil); err != ErrBusy {
		t.Fatalf("busy erase: %v", err)
	}
	k.RunAll()
}

func TestMLCPageTimes(t *testing.T) {
	tim := ProfileVertex()
	if tim.ProgTimeAt(0, 0) != 900*sim.Microsecond {
		t.Fatalf("lower page time %v", tim.ProgTimeAt(0, 0))
	}
	if tim.ProgTimeAt(1, 0) != 2400*sim.Microsecond {
		t.Fatalf("upper page time %v", tim.ProgTimeAt(1, 0))
	}
	// Wear accelerates programming.
	if tim.ProgTimeAt(0, 1.0) >= tim.ProgTimeAt(0, 0) {
		t.Fatalf("wear should shorten tPROG")
	}
}

func TestMultiPlaneProgram(t *testing.T) {
	k, d := newTestDie(t)
	addrs := []Addr{{0, 5, 0}, {1, 5, 0}}
	dur, err := d.MultiPlaneProgram(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dur != 3*sim.Millisecond {
		t.Fatalf("multi-plane duration %v", dur)
	}
	k.RunAll()
	if d.Stats.Programs != 2 || d.Stats.MultiPlane != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
	for _, a := range addrs {
		if ok, _ := d.PageProgrammed(a); !ok {
			t.Fatalf("plane %d not programmed", a.Plane)
		}
	}

	// Same plane twice is illegal.
	if _, err := d.MultiPlaneProgram([]Addr{{0, 6, 0}, {0, 7, 0}}, nil); err != ErrPlaneMismatch {
		t.Fatalf("same-plane: %v", err)
	}
	// Mismatched offsets are illegal.
	if _, err := d.MultiPlaneProgram([]Addr{{0, 6, 0}, {1, 7, 0}}, nil); err != ErrPlaneMismatch {
		t.Fatalf("offset mismatch: %v", err)
	}
}

func TestWearModel(t *testing.T) {
	tim := ProfileExplore()
	if tim.RBER(0) >= tim.RBER(0.5) || tim.RBER(0.5) >= tim.RBER(1.0) {
		t.Fatalf("RBER must grow with wear")
	}
	if tim.RBER(-1) != tim.RBER(0) {
		t.Fatalf("negative wear should clamp")
	}
	if tim.EraseTimeAt(1.0) <= tim.EraseTimeAt(0) {
		t.Fatalf("erase should slow with wear")
	}
	if tim.EraseTimeAt(100) > tim.TBersMax {
		t.Fatalf("erase exceeds ceiling")
	}
}

func TestSetWear(t *testing.T) {
	_, d := newTestDie(t)
	d.SetWear(0.5)
	if got := d.AvgWear(); got < 0.49 || got > 0.51 {
		t.Fatalf("avg wear %v", got)
	}
	if d.BlockPE(0, 0) != 1500 {
		t.Fatalf("block PE %d", d.BlockPE(0, 0))
	}
	if d.RBERAt(0, 0) <= d.Timing().RBER0 {
		t.Fatalf("RBER did not rise with wear")
	}
}

func TestEraseWearAccumulation(t *testing.T) {
	k, d := newTestDie(t)
	for i := 0; i < 5; i++ {
		if _, err := d.EraseBlock(1, 2, nil); err != nil {
			t.Fatal(err)
		}
		k.RunAll()
	}
	if d.BlockPE(1, 2) != 5 {
		t.Fatalf("PE %d", d.BlockPE(1, 2))
	}
	if d.Stats.Erases != 5 {
		t.Fatalf("erase stat %d", d.Stats.Erases)
	}
}

func TestJitterBounds(t *testing.T) {
	k := sim.NewKernel()
	tim := ProfileExplore()
	tim.JitterPct = 0.05
	geo := SmallGeometry()
	d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	lo := sim.Time(float64(3*sim.Millisecond) * 0.949)
	hi := sim.Time(float64(3*sim.Millisecond) * 1.051)
	block := 0
	page := 0
	for i := 0; i < 50; i++ {
		dur, err := d.Program(Addr{0, block, page}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dur < lo || dur > hi {
			t.Fatalf("jittered tPROG %v outside [%v, %v]", dur, lo, hi)
		}
		k.RunAll()
		page++
		if page == SmallGeometry().PagesPerBlock {
			page = 0
			block++
		}
	}
}

func TestAddressValidation(t *testing.T) {
	_, d := newTestDie(t)
	bad := []Addr{
		{Plane: -1}, {Plane: 99},
		{Block: -1}, {Block: 99},
		{Page: -1}, {Page: 99},
	}
	for _, a := range bad {
		if _, err := d.Program(a, nil); err != ErrBadAddress {
			t.Errorf("addr %+v: %v", a, err)
		}
	}
	if _, err := d.EraseBlock(5, 0, nil); err != ErrBadAddress {
		t.Errorf("erase bad plane: %v", err)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k, d := newTestDie(t)
	d.Program(Addr{0, 0, 0}, nil)
	k.RunAll()
	d.Read(Addr{0, 0, 0}, nil)
	k.RunAll()
	want := 3*sim.Millisecond + 60*sim.Microsecond
	if d.Stats.BusyTime != want {
		t.Fatalf("busy time %v want %v", d.Stats.BusyTime, want)
	}
}

// Property: for any sequence of erase counts, RBER is monotonic in wear and
// program time is monotonic non-increasing in wear.
func TestWearMonotonicityProperty(t *testing.T) {
	tim := ProfileExplore()
	f := func(a, b uint16) bool {
		w1 := float64(a%1000) / 1000
		w2 := float64(b%1000) / 1000
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		if tim.RBER(w1) > tim.RBER(w2) {
			return false
		}
		if tim.ProgTimeAt(0, w1) < tim.ProgTimeAt(0, w2) {
			return false
		}
		return tim.EraseTimeAt(w1) <= tim.EraseTimeAt(w2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a random legal op sequence never corrupts the page state
// machine: programmed set matches a shadow model.
func TestStateMachineShadowProperty(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		tim := ProfileExplore()
		tim.JitterPct = 0
		geo := SmallGeometry()
		d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		type key struct{ p, b, pg int }
		shadow := map[key]bool{}
		nextPage := map[[2]int]int{}
		for step := 0; step < 200; step++ {
			p := rng.Intn(geo.PlanesPerDie)
			b := rng.Intn(geo.BlocksPerPlane)
			switch rng.Intn(3) {
			case 0: // program next page in block
				pg := nextPage[[2]int{p, b}]
				if pg >= geo.PagesPerBlock {
					continue
				}
				if _, err := d.Program(Addr{p, b, pg}, nil); err != nil {
					return false
				}
				shadow[key{p, b, pg}] = true
				nextPage[[2]int{p, b}] = pg + 1
			case 1: // read a programmed page if any
				pg := rng.Intn(geo.PagesPerBlock)
				want := shadow[key{p, b, pg}]
				_, err := d.Read(Addr{p, b, pg}, nil)
				if want && err != nil {
					return false
				}
				if !want && err != ErrNotProgrammed {
					return false
				}
			case 2: // erase
				if _, err := d.EraseBlock(p, b, nil); err != nil {
					return false
				}
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					delete(shadow, key{p, b, pg})
				}
				nextPage[[2]int{p, b}] = 0
			}
			k.RunAll()
		}
		// Cross-check full state.
		for p := 0; p < geo.PlanesPerDie; p++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					got, _ := d.PageProgrammed(Addr{p, b, pg})
					if got != shadow[key{p, b, pg}] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPreload(t *testing.T) {
	k, d := newTestDie(t)
	a := Addr{Plane: 1, Block: 4, Page: 3}
	if err := d.Preload(a); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.PageProgrammed(a); !ok {
		t.Fatal("preloaded page not programmed")
	}
	// Preload consumes no simulated time.
	if k.Now() != 0 {
		t.Fatalf("preload advanced time to %v", k.Now())
	}
	// Reads of preloaded pages work normally.
	if _, err := d.Read(a, nil); err != nil {
		t.Fatalf("read of preloaded page: %v", err)
	}
	k.RunAll()
	// Preloading a programmed page — preloaded or programmed, below the
	// block's write frontier or at its top — changes neither its bit nor
	// the frontier, so a read may preload its page on every touch.
	next := Addr{Plane: 1, Block: 4, Page: 4}
	if _, err := d.Program(next, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	for _, pa := range []Addr{a, next, a} {
		if err := d.Preload(pa); err != nil {
			t.Fatal(err)
		}
		h := d.block(pa.Plane, pa.Block)
		if !d.programmed(h, a.Page) || !d.programmed(h, next.Page) || d.nextPage(h) != next.Page+1 {
			t.Fatalf("re-preload of page %d moved the block: pages %d/%d programmed %v/%v, next page %d, want %d",
				pa.Page, a.Page, next.Page, d.programmed(h, a.Page), d.programmed(h, next.Page), d.nextPage(h), next.Page+1)
		}
	}
	if err := d.Preload(Addr{Plane: 9}); err != ErrBadAddress {
		t.Fatalf("bad preload: %v", err)
	}
}

func TestPreloadAdvancesWriteFrontier(t *testing.T) {
	k, d := newTestDie(t)
	d.Preload(Addr{Plane: 0, Block: 0, Page: 5})
	// Next legal program on that block is page 6.
	if _, err := d.Program(Addr{0, 0, 6}, nil); err != nil {
		t.Fatalf("program after preload frontier: %v", err)
	}
	k.RunAll()
	if _, err := d.Program(Addr{0, 0, 3}, nil); err != ErrOutOfOrder {
		t.Fatalf("program behind preload frontier: %v", err)
	}
}

// chunksIn counts the materialised chunks of every plane of d, checking
// that each plane lists its chunks in strictly ascending chunk-index order,
// that every die chunk number is named exactly once, and that the die's
// block arrays hold exactly those chunks.
func chunksIn(t *testing.T, d *Die) int {
	t.Helper()
	n := 0
	seen := map[uint32]bool{}
	for p := range d.planes {
		for i, e := range d.planes[p].chunks {
			if i > 0 && e>>32 <= d.planes[p].chunks[i-1]>>32 {
				t.Fatalf("plane %d lists chunk %d after chunk %d", p, e>>32, d.planes[p].chunks[i-1]>>32)
			}
			if int(e>>32)*chunkBlocks >= d.geo.BlocksPerPlane {
				t.Fatalf("plane %d lists chunk %d outside the geometry", p, e>>32)
			}
			if seen[uint32(e)] {
				t.Fatalf("die chunk %d is listed twice", uint32(e))
			}
			seen[uint32(e)] = true
			n++
		}
	}
	if len(d.next) != n*chunkBlocks || len(d.peDelta) != n*chunkBlocks || len(d.pages) != n*chunkBlocks*d.words {
		t.Fatalf("block arrays hold %d blocks for %d chunks", len(d.next), n)
	}
	for dc := range seen {
		if int(dc) >= n {
			t.Fatalf("die chunk %d named, but only %d chunks are held", dc, n)
		}
	}
	return n
}

func TestLazyStateMemory(t *testing.T) {
	// Building a die must not materialise any block state; touching one
	// block materialises only the chunk that holds it, and reads or queries
	// of untouched blocks allocate nothing.
	k := sim.NewKernel()
	geo := DefaultGeometry()
	tim := ProfileExplore()
	d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for p := range d.planes {
		if d.planes[p].chunks != nil {
			t.Fatalf("fresh die materialised plane %d's chunk list", p)
		}
	}
	if n := chunksIn(t, d); n != 0 {
		t.Fatalf("fresh die holds %d chunks", n)
	}
	if _, err := d.Program(Addr{0, 100, 0}, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if _, ok := d.planes[0].find(100 / chunkBlocks); !ok || chunksIn(t, d) != 1 {
		t.Fatalf("programming block 100 materialised %d chunks, want only its own", chunksIn(t, d))
	}
	if d.planes[1].chunks != nil {
		t.Fatal("programming plane 0 materialised plane 1's chunk list")
	}

	last := geo.BlocksPerPlane - 1
	untouched := []Addr{
		{0, 101, 0},  // same chunk as block 100
		{0, 96, 0},   // chunk just below block 100's
		{0, 104, 0},  // chunk just above block 100's
		{0, 500, 0},  // untouched chunk, materialised plane
		{0, last, 0}, // last block of a materialised plane
		{1, 100, 0},  // plane with no chunk list
		{1, last, geo.PagesPerBlock - 1},
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, a := range untouched {
			if ok, _ := d.PageProgrammed(a); ok {
				t.Fatalf("untouched %+v reads programmed", a)
			}
			if _, err := d.Read(a, nil); err != ErrNotProgrammed {
				t.Fatalf("read of untouched %+v: %v", a, err)
			}
			if pe := d.BlockPE(a.Plane, a.Block); pe != 0 {
				t.Fatalf("untouched %+v has %d P/E cycles", a, pe)
			}
			if r := d.RBERAt(a.Plane, a.Block); r != d.Timing().RBER0 {
				t.Fatalf("untouched %+v RBER %v", a, r)
			}
			// A rejected program looks its block up without touching it.
			if _, err := d.Program(Addr{a.Plane, a.Block, 1}, nil); err != ErrOutOfOrder {
				t.Fatalf("out-of-order program of untouched %+v: %v", a, err)
			}
		}
		_ = d.AvgWear()
	})
	if allocs != 0 {
		t.Fatalf("queries of untouched blocks allocated %.1f times per run", allocs)
	}
	if n := chunksIn(t, d); n != 1 {
		t.Fatalf("queries materialised chunks: %d, want 1", n)
	}
}

// blockStateBytes is the capacity, in bytes, of every slice that holds
// d's block state: the planes' chunk lists and the die's block arrays.
func blockStateBytes(d *Die) int {
	n := cap(d.next)*int(unsafe.Sizeof(d.next[0])) +
		cap(d.peDelta)*int(unsafe.Sizeof(d.peDelta[0])) +
		cap(d.pages)*int(unsafe.Sizeof(d.pages[0]))
	for p := range d.planes {
		n += cap(d.planes[p].chunks) * int(unsafe.Sizeof(d.planes[p].chunks[0]))
	}
	return n
}

func TestBlockStateBytesSequentialWrite(t *testing.T) {
	// Table III C8's sequential write fills one block per plane of each
	// die with multi-plane programs; across 8192 dies, every byte of that
	// state costs 8 KB of heap. At DefaultGeometry it is two 4-block chunks
	// and two 8-byte list entries: 240 B.
	const bound = 256
	k := sim.NewKernel()
	geo := DefaultGeometry()
	tim := ProfileExplore()
	d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < geo.PagesPerBlock; pg++ {
		if _, err := d.MultiPlaneProgram([]Addr{{0, 7, pg}, {1, 7, pg}}, nil); err != nil {
			t.Fatal(err)
		}
		k.RunAll()
	}
	if n := chunksIn(t, d); n != 2 {
		t.Fatalf("one block on each of 2 planes materialised %d chunks, want 2", n)
	}
	got := blockStateBytes(d)
	if got > bound {
		t.Fatalf("block state of one block per plane holds %d B, want at most %d", got, bound)
	}
	t.Logf("block state of one block per plane: %d B", got)
}

// BenchmarkDieProgramRead programs a page on a touched block, then reads
// it back, cycling over blocks spread across both planes so that each
// lookup searches a plane's chunk list; a full block is erased in place.
func BenchmarkDieProgramRead(b *testing.B) {
	k := sim.NewKernel()
	geo := DefaultGeometry()
	tim := ProfileExplore()
	d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	var blocks []Addr
	for p := 0; p < geo.PlanesPerDie; p++ {
		for blk := 3; blk < geo.BlocksPerPlane; blk += 61 {
			blocks = append(blocks, Addr{Plane: p, Block: blk})
			if _, err := d.EraseBlock(p, blk, nil); err != nil {
				b.Fatal(err)
			}
			k.RunAll()
		}
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &blocks[i%len(blocks)]
		if a.Page == geo.PagesPerBlock {
			if _, err := d.EraseBlock(a.Plane, a.Block, done); err != nil {
				b.Fatal(err)
			}
			k.RunAll()
			a.Page = 0
		}
		if _, err := d.Program(*a, done); err != nil {
			b.Fatal(err)
		}
		k.RunAll()
		if _, err := d.Read(*a, done); err != nil {
			b.Fatal(err)
		}
		k.RunAll()
		a.Page++
	}
}
