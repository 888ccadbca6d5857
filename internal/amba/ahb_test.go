package amba

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newBus(t *testing.T) (*sim.Kernel, *Bus) {
	t.Helper()
	k := sim.NewKernel()
	b, err := NewBus(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, b
}

func TestConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Raw data bandwidth of one layer, no protocol overhead.
	if peak := c.ClockMHz * float64(c.BusBytes); peak != 800 {
		t.Fatalf("peak %v, want 800 MB/s for 32-bit @ 200 MHz", peak)
	}
	bad := c
	bad.Layers = 0
	if bad.Validate() == nil {
		t.Fatal("zero layers accepted")
	}
	bad = c
	bad.MaxGrantBytes = 1
	if bad.Validate() == nil {
		t.Fatal("grant smaller than bus width accepted")
	}
}

func TestGrantCycles(t *testing.T) {
	c := DefaultConfig()
	// 64 bytes = 16 beats = 1 burst: 16 + 1 + 1 = 18 cycles.
	if got := c.grantCycles(64); got != 18 {
		t.Fatalf("64B grant cycles %d, want 18", got)
	}
	// 1024 bytes = 256 beats = 16 bursts: 256 + 16 + 1 = 273 cycles.
	if got := c.grantCycles(1024); got != 273 {
		t.Fatalf("1KiB grant cycles %d, want 273", got)
	}
	// Partial beat rounds up.
	if got := c.grantCycles(5); got != 2+1+1 {
		t.Fatalf("5B grant cycles %d", got)
	}
}

func TestSingleTransfer(t *testing.T) {
	k, b := newBus(t)
	m, err := b.AttachMaster("dma0")
	if err != nil {
		t.Fatal(err)
	}
	// The transfer's window runs from its first grant's start to the end
	// of its last, where done runs.
	start, end := sim.Time(-1), sim.Time(-1)
	b.OnGrant = func(_ int, s, _ sim.Time) {
		if start < 0 {
			start = s
		}
	}
	if err := m.Transfer(4096, func() { end = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	want := b.TransferTime(4096)
	if end-start != want {
		t.Fatalf("uncontended 4KiB took %v, want %v", end-start, want)
	}
	// Effective bandwidth must be below peak but above 90% of it.
	mbps := 4096 / (end - start).Seconds() / 1e6
	peak := b.Config().ClockMHz * float64(b.Config().BusBytes)
	if mbps < 0.9*peak || mbps >= peak {
		t.Fatalf("effective bandwidth %v MB/s vs peak %v", mbps, peak)
	}
}

// TestChunkCallbacks checks the grant split through the OnGrant windows: a
// 2500-byte move takes three grants of 1024, 1024 and 452 bytes.
func TestChunkCallbacks(t *testing.T) {
	k, b := newBus(t)
	m, _ := b.AttachMaster("dma0")
	var windows []sim.Time
	b.OnGrant = func(_ int, start, end sim.Time) { windows = append(windows, end-start) }
	m.Transfer(2500, nil)
	k.RunAll()
	var want []sim.Time
	for _, n := range []int64{1024, 1024, 452} {
		want = append(want, b.clk.Cycles(b.cfg.grantCycles(n)))
	}
	if !slices.Equal(windows, want) {
		t.Fatalf("grant windows %v, want %v (1024/1024/452 bytes)", windows, want)
	}
}

func TestTwoMastersShareBandwidth(t *testing.T) {
	k, b := newBus(t)
	m1, _ := b.AttachMaster("host-dma")
	m2, _ := b.AttachMaster("flash-dma")
	const total = 1 << 20
	var e1, e2 sim.Time
	m1.Transfer(total, func() { e1 = k.Now() })
	m2.Transfer(total, func() { e2 = k.Now() })
	k.RunAll()
	solo := b.TransferTime(total)
	// Interleaved grants: both finish in ~2x the solo time.
	for _, e := range []sim.Time{e1, e2} {
		if e < solo*19/10 || e > solo*21/10 {
			t.Fatalf("contended completion %v, solo %v", e, solo)
		}
	}
	// Fair share: completions close together.
	d := e1 - e2
	if d < 0 {
		d = -d
	}
	if d > b.TransferTime(2048) {
		t.Fatalf("unfair arbitration: ends %v and %v", e1, e2)
	}
}

func TestRoundRobinNoStarvation(t *testing.T) {
	k, b := newBus(t)
	heavy, _ := b.AttachMaster("heavy")
	light, _ := b.AttachMaster("light")
	// Heavy master queues a large transfer first; light master's small
	// transfer must not wait for all of it.
	var heavyEnd, lightEnd sim.Time
	heavy.Transfer(1<<20, func() { heavyEnd = k.Now() })
	light.Transfer(1024, func() { lightEnd = k.Now() })
	k.RunAll()
	if lightEnd >= heavyEnd {
		t.Fatalf("light transfer starved: light %v heavy %v", lightEnd, heavyEnd)
	}
	if lightEnd > b.TransferTime(4096) {
		t.Fatalf("light transfer delayed too long: %v", lightEnd)
	}
}

func TestMultiLayerParallelism(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Layers = 2
	b, err := NewBus(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := b.AttachMaster("a") // layer 0
	m2, _ := b.AttachMaster("b") // layer 1
	const total = 1 << 20
	var e1, e2 sim.Time
	m1.Transfer(total, func() { e1 = k.Now() })
	m2.Transfer(total, func() { e2 = k.Now() })
	k.RunAll()
	solo := b.TransferTime(total)
	// On separate layers both complete in ~solo time.
	if e1 > solo*11/10 || e2 > solo*11/10 {
		t.Fatalf("multi-layer did not parallelise: %v %v vs solo %v", e1, e2, solo)
	}
}

func TestMasterLimit(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.MaxMasters = 2
	b, _ := NewBus(k, cfg)
	b.AttachMaster("a")
	b.AttachMaster("b")
	if _, err := b.AttachMaster("c"); err == nil {
		t.Fatal("master limit not enforced")
	}
}

func TestBadTransfer(t *testing.T) {
	k, b := newBus(t)
	m, _ := b.AttachMaster("x")
	if err := m.Transfer(0, nil); err == nil {
		t.Fatal("zero-size transfer accepted")
	}
	_ = k
}

func TestStatsAccounting(t *testing.T) {
	k, b := newBus(t)
	m, _ := b.AttachMaster("x")
	m.Transfer(4096, nil)
	k.RunAll()
	s := b.TotalStats()
	if s.Bytes != 4096 {
		t.Fatalf("bytes %d", s.Bytes)
	}
	if s.Grants != 4 {
		t.Fatalf("grants %d, want 4 (1KiB each)", s.Grants)
	}
	if m.Bytes != 4096 || m.Grants != 4 {
		t.Fatalf("master stats %d/%d", m.Bytes, m.Grants)
	}
	if u := b.Utilization(k.Now()); u <= 0.9 || u > 1.0 {
		t.Fatalf("utilization %v for saturated run", u)
	}
}

// Property: transfer time is additive-monotonic and aligned to bus clock.
func TestTransferTimeProperty(t *testing.T) {
	k := sim.NewKernel()
	b, _ := NewBus(k, DefaultConfig())
	f := func(a, c uint16) bool {
		x, y := int64(a)+1, int64(c)+1
		tx, ty, txy := b.TransferTime(x), b.TransferTime(y), b.TransferTime(x+y)
		if tx <= 0 || ty <= 0 {
			return false
		}
		// Splitting can only add overhead (more grants).
		return txy <= tx+ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: N equal masters each receive ~1/N of the bandwidth under
// saturation (round-robin fairness).
func TestFairShareProperty(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		k := sim.NewKernel()
		b, _ := NewBus(k, DefaultConfig())
		const per = 1 << 18
		ends := make([]sim.Time, n)
		for i := 0; i < n; i++ {
			i := i
			m, err := b.AttachMaster("m")
			if err != nil {
				t.Fatal(err)
			}
			m.Transfer(per, func() { ends[i] = k.Now() })
		}
		k.RunAll()
		solo := b.TransferTime(per)
		for i, e := range ends {
			lo := solo * sim.Time(n) * 9 / 10
			hi := solo * sim.Time(n) * 11 / 10
			if e < lo || e > hi {
				t.Fatalf("n=%d master %d finished at %v, want ~%v", n, i, e, solo*sim.Time(n))
			}
		}
	}
}

// TestNextReadyMatchesScan checks the ready-mask search against the linear
// scan it replaces: from slot first, cyclically, the first master with
// pending work. Layers of up to 200 slots span several mask words.
func TestNextReadyMatchesScan(t *testing.T) {
	rng := sim.NewRNG(5)
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(200)
		l := &layer{ready: make([]uint64, (n+63)/64)}
		pending := make([]bool, n)
		density := rng.Float64()
		for s := range pending {
			if rng.Float64() < density*density {
				pending[s] = true
				l.ready[s>>6] |= 1 << (s & 63)
			}
		}
		first := rng.Intn(n + 1)
		want := -1
		for i := 0; i < n; i++ {
			j := first + i
			if j >= n {
				j -= n
			}
			if pending[j] {
				want = j
				break
			}
		}
		if got := l.nextReady(first); got != want {
			t.Fatalf("n=%d first=%d pending=%v: nextReady = %d, scan = %d", n, first, pending, got, want)
		}
	}
}

// ahbScript is one random multi-master Transfer script. Arrivals come
// from outside events on the full-chunk grid, so many land exactly on a
// chunk boundary, some before and some after that boundary's delivery,
// from same-time lane events, and from done callbacks at a transfer's end.
type ahbScript struct {
	k       *sim.Kernel
	bus     *Bus
	rng     *sim.RNG
	masters []*Master
	log     []string
	n       int // transfers so far

	runs, cuts int // with OnGrant nil: runs seen after a Transfer, Transfers that cut one
}

const ahbScriptTransfers = 300

func runAHBScript(t *testing.T, seed uint64, layers int, observe bool) *ahbScript {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Layers = layers
	bus, err := NewBus(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observe {
		bus.OnGrant = func(int, sim.Time, sim.Time) {}
	}
	sc := &ahbScript{k: k, bus: bus, rng: sim.NewRNG(seed)}
	for i := 0; i < 2*layers+1; i++ {
		m, err := bus.AttachMaster("m")
		if err != nil {
			t.Fatal(err)
		}
		sc.masters = append(sc.masters, m)
	}
	full := bus.clk.Cycles(cfg.grantCycles(cfg.MaxGrantBytes))
	for i := 0; i < 60; i++ {
		at := sim.Time(sc.rng.Intn(80)) * full
		if sc.rng.Bool(0.2) {
			at += sim.Time(sc.rng.Intn(int(full)))
		}
		k.At(at, sc.transfer)
	}
	k.RunAll()
	return sc
}

// transfer starts one transfer of a random size on a random master.
func (sc *ahbScript) transfer() {
	if sc.n >= ahbScriptTransfers {
		return
	}
	sc.n++
	id, r := sc.n, sc.rng
	m := sc.masters[r.Intn(len(sc.masters))]
	size := int64(1+r.Intn(6)) * 1024
	if r.Bool(0.3) {
		size = int64(1 + r.Intn(5000))
	}
	if m.layer.run.d != nil {
		sc.cuts++
	}
	if err := m.Transfer(size, func() {
		sc.log = append(sc.log, fmt.Sprintf("%d done at %v", id, sc.k.Now()))
		switch r.Intn(4) {
		case 0:
			sc.transfer()
		case 1:
			sc.k.Schedule(0, sc.transfer)
		}
	}); err != nil {
		panic(err)
	}
	if m.layer.run.d != nil {
		sc.runs++
	}
}

// TestRunsMatchPerChunkGrants runs each script twice: with OnGrant nil, so
// uncontended transfers ride the kernel chain, and with a no-op OnGrant,
// which grants every chunk on its own. Done order and times, layer and
// master counters and the executed event count must be identical.
func TestRunsMatchPerChunkGrants(t *testing.T) {
	runs, cuts := 0, 0
	for seed := uint64(1); seed <= 30; seed++ {
		for _, layers := range []int{1, 2} {
			name := fmt.Sprintf("seed%d/layers%d", seed, layers)
			got := runAHBScript(t, seed, layers, false)
			want := runAHBScript(t, seed, layers, true)
			if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
				t.Fatalf("%s: done log\n%v\nper-chunk\n%v", name, got.log, want.log)
			}
			if got.k.Now() != want.k.Now() || got.k.Executed != want.k.Executed {
				t.Fatalf("%s: ended at %v after %d events, per-chunk at %v after %d",
					name, got.k.Now(), got.k.Executed, want.k.Now(), want.k.Executed)
			}
			for i, l := range got.bus.layers {
				if l.Stats != want.bus.layers[i].Stats {
					t.Fatalf("%s: layer %d stats %+v, per-chunk %+v", name, i, l.Stats, want.bus.layers[i].Stats)
				}
			}
			for i, m := range got.masters {
				if w := want.masters[i]; m.Grants != w.Grants || m.Bytes != w.Bytes {
					t.Fatalf("%s: master %d moved %d B in %d grants, per-chunk %d B in %d",
						name, i, m.Bytes, m.Grants, w.Bytes, w.Grants)
				}
			}
			runs += got.runs
			cuts += got.cuts
		}
	}
	if runs == 0 || cuts == 0 {
		t.Fatalf("the scripts started %d runs and cut %d: the run path went unexercised", runs, cuts)
	}
}

// BenchmarkAHBTransfer measures the arbitrated transfer path with 33
// masters on one layer (Table III C8's host DMA plus 32 channel DMAs),
// every master keeping transfers queued: pooled transfers and deliveries,
// the masters' FIFO rings and the ready mask keep the steady state at
// 0 allocs/op.
func BenchmarkAHBTransfer(b *testing.B) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.MaxMasters = 33
	bus, err := NewBus(k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	masters := make([]*Master, cfg.MaxMasters)
	for i := range masters {
		if masters[i], err = bus.AttachMaster("m"); err != nil {
			b.Fatal(err)
		}
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := masters[i%len(masters)].Transfer(4096, done); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			k.RunAll()
		}
	}
	k.RunAll()
}

// BenchmarkAHBTransferRun measures the uncontended transfer path: one
// master, each 4 KiB transfer started from the previous one's done, so
// every transfer is granted as one run whose chunk deliveries are chain
// ticks. The steady state is 0 allocs/op.
func BenchmarkAHBTransferRun(b *testing.B) {
	k := sim.NewKernel()
	bus, err := NewBus(k, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := bus.AttachMaster("m")
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	var next func()
	next = func() {
		if n < b.N {
			n++
			if err := m.Transfer(4096, next); err != nil {
				panic(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	next()
	k.RunAll()
}
