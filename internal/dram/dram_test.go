package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newBuf(t *testing.T) (*sim.Kernel, *Buffer) {
	t.Helper()
	k := sim.NewKernel()
	b, err := New(k, 0, DDR2_800x16(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	return k, b
}

func TestConfigValidation(t *testing.T) {
	c := DDR2_800x16(64 << 20)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Banks = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero banks")
	}
	bad = c
	bad.CapacityBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero capacity")
	}
	bad = c
	bad.TRP = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative timing")
	}
}

func TestPeakBandwidth(t *testing.T) {
	c := DDR2_800x16(64 << 20)
	if got := c.PeakMBps(); got != 1600 {
		t.Fatalf("peak %v MB/s, want 1600", got)
	}
	if c.BurstBytes() != 16 {
		t.Fatalf("burst bytes %d", c.BurstBytes())
	}
}

func TestSingleAccessTiming(t *testing.T) {
	k, b := newBuf(t)
	var start, end, doneAt sim.Time
	b.OnServe = func(_ bool, s, e sim.Time) { start, end = s, e }
	if err := b.Access(true, 0, 4096, func() { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if doneAt != end {
		t.Fatalf("done ran at %v, window ends at %v", doneAt, end)
	}
	if end <= start {
		t.Fatalf("empty service window [%v, %v]", start, end)
	}
	// 4 KiB at 1600 MB/s peak is 2.56 us; with activate overheads the
	// service time must be between peak-rate time and 2x peak-rate time.
	lo := 2560 * sim.Nanosecond
	hi := 2 * lo
	if d := end - start; d < lo || d > hi {
		t.Fatalf("4KiB write took %v, want in [%v, %v]", d, lo, hi)
	}
}

func TestSequentialRowHits(t *testing.T) {
	k, b := newBuf(t)
	for i := int64(0); i < 8; i++ {
		b.Access(true, i*4096, 4096, nil)
	}
	k.RunAll()
	if b.Stats.Writes != 8 {
		t.Fatalf("writes %d", b.Stats.Writes)
	}
	// Sequential 4 KiB writes over 2 KiB rows: ~2 row misses per request,
	// against hundreds of burst hits.
	if b.Stats.RowHits < 10*b.Stats.RowMisses {
		t.Fatalf("row hits %d vs misses %d: sequential stream should mostly hit",
			b.Stats.RowHits, b.Stats.RowMisses)
	}
}

func TestReadPaysCASLatency(t *testing.T) {
	k, b := newBuf(t)
	var wDur, rDur sim.Time
	b.OnServe = func(write bool, s, e sim.Time) {
		if write {
			wDur = e - s
		} else {
			rDur = e - s
		}
	}
	b.Access(true, 0, 16, nil)
	k.RunAll()
	// Same row now open; read of the same burst adds CL.
	b.Access(false, 0, 16, nil)
	k.RunAll()
	if rDur <= 0 || wDur <= 0 {
		t.Fatalf("durations %v %v", wDur, rDur)
	}
	clk := sim.NewClock("m", 400)
	if rDur != clk.Cycles(5)+clk.Cycles(4) { // CL=5 + BL8 transfer (4 clocks)
		t.Fatalf("open-row 16B read took %v", rDur)
	}
}

func TestFCFSOrderAndSerialization(t *testing.T) {
	k, b := newBuf(t)
	var order []int
	var windows [][2]sim.Time
	var ends []sim.Time
	b.OnServe = func(_ bool, s, e sim.Time) { windows = append(windows, [2]sim.Time{s, e}) }
	for i := 0; i < 4; i++ {
		b.Access(true, int64(i)*1<<20, 4096, func() {
			order = append(order, i)
			ends = append(ends, k.Now())
		})
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v", order)
		}
	}
	for i := 1; i < len(windows); i++ {
		if windows[i][0] < windows[i-1][1] {
			t.Fatalf("overlapping windows %v", windows)
		}
	}
	for i, w := range windows {
		if ends[i] != w[1] {
			t.Fatalf("access %d done at %v, its window %v", i, ends[i], w)
		}
	}
}

func TestRefreshOccurs(t *testing.T) {
	k, b := newBuf(t)
	// Push enough traffic to span several tREFI periods (7.8 us each).
	// 64 x 4 KiB ~ 167 us of device time.
	for i := 0; i < 64; i++ {
		b.Access(true, int64(i)*4096, 4096, nil)
	}
	k.RunAll()
	if b.Stats.Refreshes < 10 {
		t.Fatalf("refreshes %d, want >= 10 over %v", b.Stats.Refreshes, k.Now())
	}
}

func TestSustainedBandwidth(t *testing.T) {
	k, b := newBuf(t)
	const n = 256
	for i := 0; i < n; i++ {
		b.Access(true, int64(i)*4096, 4096, nil)
	}
	k.RunAll()
	mbps := float64(n*4096) / k.Now().Seconds() / 1e6
	// DDR2-800 x16 sequential write efficiency should land between 60 and
	// 100 percent of the 1600 MB/s peak.
	if mbps < 960 || mbps > 1600 {
		t.Fatalf("sustained %v MB/s", mbps)
	}
}

func TestAddressWrap(t *testing.T) {
	k, b := newBuf(t)
	cap := b.Config().CapacityBytes
	if err := b.Access(true, cap+4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if b.Stats.Writes != 1 {
		t.Fatalf("wrapped access not served")
	}
	if err := b.Access(true, -1, 4096, nil); err == nil {
		t.Fatal("negative address accepted")
	}
	if err := b.Access(true, 0, 0, nil); err == nil {
		t.Fatal("zero-size access accepted")
	}
}

func TestPoolRoundRobin(t *testing.T) {
	k := sim.NewKernel()
	p, err := NewPool(k, 4, DDR2_800x16(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	if p.ForChannel(0) != p.Buffers[0] || p.ForChannel(5) != p.Buffers[1] {
		t.Fatalf("channel mapping wrong")
	}
	if _, err := NewPool(k, 0, DDR2_800x16(16<<20)); err == nil {
		t.Fatal("zero-buffer pool accepted")
	}
}

func TestPoolTotalStats(t *testing.T) {
	k := sim.NewKernel()
	p, _ := NewPool(k, 2, DDR2_800x16(16<<20))
	p.Buffers[0].Access(true, 0, 4096, nil)
	p.Buffers[1].Access(false, 0, 8192, nil)
	k.RunAll()
	s := p.TotalStats()
	if s.Writes != 1 || s.Reads != 1 || s.BytesWrite != 4096 || s.BytesRead != 8192 {
		t.Fatalf("totals %+v", s)
	}
}

// Property: service time is monotonic in request size and every service
// window is aligned to the memory clock.
func TestServiceTimeProperty(t *testing.T) {
	f := func(nBlocks uint8) bool {
		k := sim.NewKernel()
		b, err := New(k, 0, DDR2_800x16(64<<20))
		if err != nil {
			return false
		}
		n := int64(nBlocks%32+1) * 512
		var d1, d2 sim.Time
		var s1 sim.Time
		b.OnServe = func(_ bool, s, e sim.Time) { s1, d1 = s, e-s }
		b.Access(true, 0, n, nil)
		k.RunAll()
		k2 := sim.NewKernel()
		b2, _ := New(k2, 0, DDR2_800x16(64<<20))
		b2.OnServe = func(_ bool, s, e sim.Time) { d2 = e - s }
		b2.Access(true, 0, 2*n, nil)
		k2.RunAll()
		if s1%b.clk.Period != 0 {
			return false
		}
		return d2 > d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	k, b := newBuf(t)
	b.Access(true, 0, 4096, nil)
	k.RunAll()
	u := b.Utilization(k.Now())
	if u <= 0.5 || u > 1.0 {
		t.Fatalf("utilization %v of a fully-busy run", u)
	}
}

// Property: interleaved read/write traffic completes in order with positive
// service windows and total busy time no greater than elapsed time.
func TestMixedTrafficProperty(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		b, err := New(k, 0, DDR2_800x16(64<<20))
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		var last sim.Time
		ordered := true
		b.OnServe = func(_ bool, s, e sim.Time) {
			if s < last || e <= s {
				ordered = false
			}
			last = e
		}
		for i := 0; i < 40; i++ {
			write := rng.Bool(0.5)
			addr := rng.Int63n(32 << 20)
			size := int64(rng.Intn(8)+1) * 512
			b.Access(write, addr, size, func() {
				if k.Now() != last {
					ordered = false
				}
			})
		}
		k.RunAll()
		return ordered && b.Stats.BusyTime <= k.Now() && b.Stats.Reads+b.Stats.Writes == 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDRAMAccess measures the buffer's access path on a stream of
// sequential 4 KiB writes, up to 256 queued: pooled requests, the FIFO ring
// and the closed-form burst walk keep the steady state at 0 allocs/op.
func BenchmarkDRAMAccess(b *testing.B) {
	k := sim.NewKernel()
	buf, err := New(k, 0, DDR2_800x16(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Access(true, int64(i)*4096, 4096, nop); err != nil {
			b.Fatal(err)
		}
		if buf.QueueLen() >= 256 {
			k.RunAll()
		}
	}
	k.RunAll()
}
