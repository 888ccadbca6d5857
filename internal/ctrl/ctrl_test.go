package ctrl

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/sim"
)

type rig struct {
	k   *sim.Kernel
	bus *amba.Bus
	buf *dram.Buffer
	ch  *Channel
}

func newRig(t *testing.T, cfg Config, tim nand.Timing) *rig {
	t.Helper()
	k := sim.NewKernel()
	bus, err := amba.NewBus(k, amba.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := bus.AttachMaster("ppdma0")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := dram.New(k, 0, dram.DDR2_800x16(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	tim.JitterPct = 0
	geo := nand.SmallGeometry()
	ch, err := New(k, 0, cfg, &geo, &tim, m, buf, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, bus: bus, buf: buf, ch: ch}
}

func TestGangModeParse(t *testing.T) {
	for _, g := range []GangMode{SharedBus, SharedControl} {
		got, err := ParseGangMode(g.String())
		if err != nil || got != g {
			t.Fatalf("gang %v round trip: %v %v", g, got, err)
		}
	}
	if _, err := ParseGangMode("mesh"); err == nil {
		t.Fatal("bad gang mode accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Ways: 0, DiesPerWay: 1}).Validate(); err == nil {
		t.Fatal("zero ways accepted")
	}
	c := Config{Ways: 4, DiesPerWay: 2}
	if c.Dies() != 8 {
		t.Fatalf("dies %d", c.Dies())
	}
}

func TestSingleWriteCompletes(t *testing.T) {
	r := newRig(t, Config{Ways: 2, DiesPerWay: 2}, nand.ProfileExplore())
	done := false
	err := r.ch.Program(0, []nand.Addr{{Plane: 0, Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !done {
		t.Fatal("write never completed")
	}
	// Total time must be dominated by tPROG (3 ms) plus transfer stages.
	if r.k.Now() < 3*sim.Millisecond || r.k.Now() > 4*sim.Millisecond {
		t.Fatalf("single write took %v", r.k.Now())
	}
	if r.ch.Stats.PageWrites != 1 || r.ch.Stats.BytesToNAND != 4096 {
		t.Fatalf("stats %+v", r.ch.Stats)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	a := nand.Addr{Plane: 0, Block: 1, Page: 0}
	var readDone bool
	r.ch.Program(0, []nand.Addr{a}, 4096, nil, 0, nil, func() {
		r.ch.Read(0, a, 4096, nil, false, func() { readDone = true })
	})
	r.k.RunAll()
	if !readDone {
		t.Fatal("read never completed")
	}
	if r.ch.Stats.PageReads != 1 || r.ch.Stats.BytesFromNAND != 4096 {
		t.Fatalf("stats %+v", r.ch.Stats)
	}
}

func TestDieParallelismHidesProgramTime(t *testing.T) {
	// 4 dies on one channel: programs overlap, so 4 writes take far less
	// than 4x tPROG.
	r := newRig(t, Config{Ways: 4, DiesPerWay: 1}, nand.ProfileExplore())
	remaining := 4
	for d := 0; d < 4; d++ {
		r.ch.Program(d, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { remaining-- })
	}
	r.k.RunAll()
	if remaining != 0 {
		t.Fatalf("%d writes pending", remaining)
	}
	// Serial would be ~12.6 ms; pipelined should be ~3.5 ms.
	if r.k.Now() > 5*sim.Millisecond {
		t.Fatalf("no die pipelining: %v", r.k.Now())
	}
}

func TestSharedBusSerializesTransfers(t *testing.T) {
	// With a huge tPROG the bus is free; with tiny tPROG and big pages the
	// ONFI bus dominates. Compare shared-bus vs shared-control on 4 ways.
	tim := nand.ProfileExplore()
	tim.TProgLower = 10 * sim.Microsecond
	tim.TProgUpper = 10 * sim.Microsecond

	run := func(g GangMode) sim.Time {
		r := newRig(t, Config{Ways: 4, DiesPerWay: 1, Gang: g}, tim)
		n := 8
		for i := 0; i < 8; i++ {
			r.ch.Program(i%4, []nand.Addr{{Block: 0, Page: i / 4}}, 4096, nil, 0, nil, func() { n-- })
		}
		r.k.RunAll()
		if n != 0 {
			t.Fatalf("%d pending", n)
		}
		return r.k.Now()
	}
	tBus := run(SharedBus)
	tCtl := run(SharedControl)
	// Shared-control has per-way data paths: materially faster when the
	// data bus is the bottleneck (4 KiB at 25 MB/s = 164 us per page).
	if tCtl >= tBus {
		t.Fatalf("shared-control (%v) not faster than shared-bus (%v)", tCtl, tBus)
	}
	if float64(tBus)/float64(tCtl) < 1.5 {
		t.Fatalf("gang speedup too small: %v vs %v", tBus, tCtl)
	}
}

func TestMultiPlaneWrite(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileVertex())
	addrs := []nand.Addr{{Plane: 0, Block: 0, Page: 0}, {Plane: 1, Block: 0, Page: 0}}
	done := false
	if err := r.ch.Program(0, addrs, 4096, nil, 0, nil, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !done {
		t.Fatal("multi-plane write pending")
	}
	if r.ch.Stats.PageWrites != 2 {
		t.Fatalf("page writes %d", r.ch.Stats.PageWrites)
	}
	if r.ch.Die(0).Stats.MultiPlane != 1 {
		t.Fatalf("die did not see a multi-plane op")
	}
}

func TestEraseThenReuse(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	a := nand.Addr{Plane: 0, Block: 2, Page: 0}
	sequence := []string{}
	r.ch.Program(0, []nand.Addr{a}, 4096, nil, 0, nil, func() { sequence = append(sequence, "w1") })
	r.ch.Erase(0, 0, 2, func() { sequence = append(sequence, "e") })
	r.ch.Program(0, []nand.Addr{a}, 4096, nil, 0, nil, func() { sequence = append(sequence, "w2") })
	r.k.RunAll()
	if len(sequence) != 3 || sequence[0] != "w1" || sequence[1] != "e" || sequence[2] != "w2" {
		t.Fatalf("sequence %v", sequence)
	}
	if r.ch.Die(0).BlockPE(0, 2) != 1 {
		t.Fatalf("PE %d", r.ch.Die(0).BlockPE(0, 2))
	}
}

func TestBadArguments(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	if err := r.ch.Program(5, []nand.Addr{{}}, 4096, nil, 0, nil, nil); err == nil {
		t.Fatal("bad die accepted")
	}
	if err := r.ch.Program(0, []nand.Addr{{}}, 0, nil, 0, nil, nil); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := r.ch.Read(-1, nand.Addr{}, 4096, nil, false, nil); err == nil {
		t.Fatal("negative die accepted")
	}
	if err := r.ch.Erase(9, 0, 0, nil); err == nil {
		t.Fatal("bad erase die accepted")
	}
	if err := r.ch.Program(0, nil, 4096, nil, 0, nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestThroughputBoundedByONFI(t *testing.T) {
	// One die, tiny tPROG: sustained write rate must approach but not
	// exceed the ONFI bus rate (25 MB/s on the explore profile).
	tim := nand.ProfileExplore()
	tim.TProgLower = 1 * sim.Microsecond
	tim.TProgUpper = 1 * sim.Microsecond
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, tim)
	const pages = 64
	alloc := NewPageAllocator(1, nand.SmallGeometry())
	left := pages
	for i := 0; i < pages; i++ {
		addr, _ := alloc.Next(0)
		r.ch.Program(0, []nand.Addr{addr}, 4096, nil, 0, nil, func() { left-- })
	}
	r.k.RunAll()
	if left != 0 {
		t.Fatalf("%d pending", left)
	}
	mbps := float64(pages*4096) / r.k.Now().Seconds() / 1e6
	if mbps > 25 {
		t.Fatalf("write rate %v MB/s exceeds ONFI bus rate", mbps)
	}
	if mbps < 15 {
		t.Fatalf("write rate %v MB/s too far below ONFI rate", mbps)
	}
}

func TestAllocatorPlaneGrouping(t *testing.T) {
	geo := nand.SmallGeometry() // 2 planes
	a := NewPageAllocator(1, geo)
	a1, e1 := a.Next(0)
	a2, e2 := a.Next(0)
	if e1 || e2 {
		t.Fatalf("fresh die should not need erase")
	}
	if a1 != (nand.Addr{Plane: 0, Block: 0, Page: 0}) || a2 != (nand.Addr{Plane: 1, Block: 0, Page: 0}) {
		t.Fatalf("first pair %v %v", a1, a2)
	}
	a3, _ := a.Next(0)
	if a3 != (nand.Addr{Plane: 0, Block: 0, Page: 1}) {
		t.Fatalf("third alloc %v", a3)
	}
}

func TestAllocatorWrapRequestsErase(t *testing.T) {
	geo := nand.SmallGeometry()
	a := NewPageAllocator(1, geo)
	total := geo.PlanesPerDie * geo.BlocksPerPlane * geo.PagesPerBlock
	erases := 0
	for i := 0; i < 2*total; i++ {
		_, e := a.Next(0)
		if e {
			erases++
		}
	}
	// Second lap must erase every (plane, block) once.
	want := geo.PlanesPerDie * geo.BlocksPerPlane
	if erases != want {
		t.Fatalf("erase requests %d, want %d", erases, want)
	}
}

func TestAllocatorBatch(t *testing.T) {
	geo := nand.SmallGeometry()
	a := NewPageAllocator(1, geo)
	addrs, erase := a.Batch(0, 2, nil, nil)
	if len(addrs) != 2 || len(erase) != 0 {
		t.Fatalf("batch %v erase %v", addrs, erase)
	}
	if addrs[0].Plane == addrs[1].Plane || addrs[0].Page != addrs[1].Page || addrs[0].Block != addrs[1].Block {
		t.Fatalf("batch not multi-plane legal: %v", addrs)
	}
	// Batch larger than plane count clips at the group boundary.
	addrs, _ = a.Batch(0, 5, nil, nil)
	if len(addrs) != 2 {
		t.Fatalf("oversized batch returned %d", len(addrs))
	}
}

func TestCacheSlotsThrottleInFlight(t *testing.T) {
	cfg := Config{Ways: 4, DiesPerWay: 1, CacheSlots: 1}
	r := newRig(t, cfg, nand.ProfileExplore())
	// With one SRAM slot, writes to distinct dies fully serialise the
	// pre-program stages; die programs cannot overlap their transfers.
	n := 4
	for d := 0; d < 4; d++ {
		r.ch.Program(d, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { n-- })
	}
	r.k.RunAll()
	serialized := r.k.Now()

	r2 := newRig(t, Config{Ways: 4, DiesPerWay: 1}, nand.ProfileExplore())
	n2 := 4
	for d := 0; d < 4; d++ {
		r2.ch.Program(d, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { n2-- })
	}
	r2.k.RunAll()
	if serialized <= r2.k.Now() {
		t.Fatalf("cache slots had no effect: %v vs %v", serialized, r2.k.Now())
	}
}

func TestSetWear(t *testing.T) {
	r := newRig(t, Config{Ways: 2, DiesPerWay: 1}, nand.ProfileExplore())
	r.ch.SetWear(0.7)
	if w := r.ch.AvgWear(); w < 0.69 || w > 0.71 {
		t.Fatalf("avg wear %v", w)
	}
}
