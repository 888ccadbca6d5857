// Package dram models the SSD's DRAM data buffers at the cycle-accurate
// abstraction the paper assigns to them (§III-C2): a DDR2 SDRAM device per
// buffer with bank state, row activate/precharge, CAS latency, write
// recovery and periodic refresh — the "column pre-charging, refresh
// operations, detailed command timings" the paper lists as the reason a
// behavioural DRAM model is insufficient. It substitutes for the SystemC
// port of DRAMSim2 [18] used by SSDExplorer. Timing is exact to the memory
// clock for every burst, but computing it costs work per row and per
// refresh, not per burst.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Config describes one DDR2 buffer device and its interface timing. All
// cycle quantities are in memory-clock cycles (DDR: two data transfers per
// clock).
type Config struct {
	ClockMHz float64 // I/O clock (DDR2-800 -> 400 MHz)
	BusBytes int     // data bus width in bytes (x16 -> 2)
	BurstLen int     // BL in transfers (8 typical)
	Banks    int
	RowBytes int64 // row (page) size per bank

	CL   int // CAS latency
	TRCD int // RAS-to-CAS delay
	TRP  int // row precharge
	TRAS int // row active minimum (not directly modelled; kept for docs)
	TWR  int // write recovery
	TRFC int // refresh cycle time

	TREFI sim.Time // average refresh interval

	CapacityBytes int64 // addressable bytes in this buffer
}

// DDR2_800x16 returns the DDR2-800 x16 profile the paper's results are
// modelled after ("the results of this work are modeled after a DDR2 SDRAM
// interface").
func DDR2_800x16(capacity int64) Config {
	return Config{
		ClockMHz:      400,
		BusBytes:      2,
		BurstLen:      8,
		Banks:         8,
		RowBytes:      2048,
		CL:            5,
		TRCD:          5,
		TRP:           5,
		TRAS:          18,
		TWR:           6,
		TRFC:          51,
		TREFI:         7800 * sim.Nanosecond,
		CapacityBytes: capacity,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockMHz <= 0 || c.BusBytes <= 0 || c.BurstLen <= 0 || c.Banks <= 0 || c.RowBytes <= 0 {
		return fmt.Errorf("dram: invalid config %+v", c)
	}
	if c.CL < 0 || c.TRCD < 0 || c.TRP < 0 || c.TWR < 0 || c.TRFC < 0 {
		return errors.New("dram: negative timing parameter")
	}
	if c.CapacityBytes <= 0 {
		return errors.New("dram: capacity must be positive")
	}
	return nil
}

// PeakMBps is the theoretical interface bandwidth.
func (c Config) PeakMBps() float64 {
	return c.ClockMHz * 1e6 * 2 * float64(c.BusBytes) / 1e6
}

// BurstBytes is the data moved per burst.
func (c Config) BurstBytes() int64 { return int64(c.BurstLen) * int64(c.BusBytes) }

// Stats aggregates accesses served by one buffer.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
	RowHits    uint64
	RowMisses  uint64
	Refreshes  uint64
	BusyTime   sim.Time
}

// Buffer is one DDR2 device with a FCFS controller front-end. Requests are
// served one at a time; within a request the burst walk across banks/rows is
// computed analytically at clock-cycle granularity, in closed form per row:
// DDR2 command timing is kept without one simulation event, or one loop
// step, per column access.
type Buffer struct {
	ID  int
	cfg Config
	k   *sim.Kernel
	clk *sim.Clock

	openRow     []int64 // per bank; -1 = closed
	busyUntil   sim.Time
	nextRefresh sim.Time
	queue       sim.FIFO[*req]
	free        sim.FreeList[req] // recycled requests (hot-path allocation control)

	Stats Stats

	// OnServe, when set, observes every served access window. Tracing hook:
	// nil by default, one branch cost on the serve path.
	OnServe func(write bool, start, end sim.Time)
}

// req is one queued access. fire is the request's completion callback,
// bound once so pooled requests never need a fresh closure.
type req struct {
	write bool
	addr  int64
	bytes int64
	done  func()
	fire  func()
}

// New builds a buffer device.
func New(k *sim.Kernel, id int, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Buffer{
		ID:          id,
		cfg:         cfg,
		k:           k,
		clk:         sim.NewClock(fmt.Sprintf("ddr%d", id), cfg.ClockMHz),
		nextRefresh: cfg.TREFI,
	}
	b.openRow = make([]int64, cfg.Banks)
	for i := range b.openRow {
		b.openRow[i] = -1
	}
	return b, nil
}

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Access queues a read or write of length bytes starting at addr. done, if
// non-nil, runs at data completion, the end of the service window; the
// window itself is observable only through OnServe. Addresses wrap at
// capacity (the buffer is a ring in cache mode).
//
//ssdx:hotpath
func (b *Buffer) Access(write bool, addr int64, bytes int64, done func()) error {
	if bytes <= 0 {
		return errors.New("dram: access of non-positive size")
	}
	if addr < 0 {
		return errors.New("dram: negative address")
	}
	addr %= b.cfg.CapacityBytes
	r := b.allocReq()
	r.write, r.addr, r.bytes, r.done = write, addr, bytes, done
	b.queue.Push(r)
	b.kick()
	return nil
}

// allocReq takes a pooled request (or builds one with its fire callback).
func (b *Buffer) allocReq() *req {
	if r := b.free.Take(); r != nil {
		return r
	}
	r := &req{}
	r.fire = func() {
		done := r.done
		r.done = nil
		b.free.Give(r)
		if done != nil {
			done()
		}
		b.kick()
	}
	return r
}

// kick starts serving the oldest queued request if the device is idle.
//
//ssdx:hotpath
func (b *Buffer) kick() {
	if b.queue.Len() == 0 {
		return
	}
	now := b.k.Now()
	if b.busyUntil > now {
		return // completion event will re-kick
	}
	r := b.queue.Pop()

	start := b.clk.NextEdge(now)
	end := b.serve(start, r)
	b.busyUntil = end
	b.Stats.BusyTime += end - start
	if b.OnServe != nil {
		b.OnServe(r.write, start, end)
	}
	if r.write {
		b.Stats.Writes++
		b.Stats.BytesWrite += uint64(r.bytes)
	} else {
		b.Stats.Reads++
		b.Stats.BytesRead += uint64(r.bytes)
	}
	b.k.At(end, r.fire)
}

// serve computes the completion time of r starting at t, updating bank and
// refresh state. The address maps row-interleaved across banks so that
// sequential streams hit open rows.
//
// The timing is that of a walk over the request one burst at a time, but the
// work grows with rows and refreshes, not with bursts: inside one row
// segment every burst before the last is a full burst of identical cost, so
// runs of them are jumped in closed form — open-row hits until the next
// refresh falls due, and catch-up refreshes while the refresh schedule lags
// t. Row ends, partial bursts, row misses and the bursts that cross the end
// of capacity take the per-burst step.
//
//ssdx:hotpath
func (b *Buffer) serve(t sim.Time, r *req) sim.Time {
	c := b.cfg
	period := b.clk.Period
	banks := int64(c.Banks)
	burst := c.BurstBytes()
	// A full burst moves BurstLen transfers, two per clock; reads pay CL first.
	full := sim.Time((c.BurstLen+1)/2) * period
	if !r.write {
		full += sim.Time(c.CL) * period
	}
	addr := r.addr
	remaining := r.bytes
	for remaining > 0 {
		rowIdx := addr / c.RowBytes
		bank := int(rowIdx % banks)
		row := rowIdx / banks
		rowRemain := c.RowBytes - addr%c.RowBytes

		// Full bursts that start in this row before its last burst, and
		// below capacity (a burst past the end wraps to another row).
		k := min((rowRemain-1)/burst, remaining/burst, (c.CapacityBytes-1-addr)/burst+1)
		if k > 0 {
			if t >= b.nextRefresh {
				// Catch-up: each burst here pays a refresh, which closes every
				// row, then activates its row and moves its data, until t
				// falls behind the advancing refresh schedule. Refreshes that
				// fall due while the buffer is idle are not done in the
				// background: the next access pays every one of them, one per
				// burst, here or in the single-burst step below.
				cost := sim.Time(c.TRFC+c.TRCD)*period + full
				if gain := c.TREFI - cost; gain > 0 {
					k = min(k, int64((t-b.nextRefresh)/gain)+1)
				}
				t += sim.Time(k) * cost
				b.nextRefresh += sim.Time(k) * c.TREFI
				b.Stats.Refreshes += uint64(k)
				b.Stats.RowMisses += uint64(k)
				for i := range b.openRow {
					b.openRow[i] = -1
				}
				b.openRow[bank] = row
			} else if b.openRow[bank] == row {
				// Open-row hits until the next refresh falls due.
				if full > 0 {
					k = min(k, int64((b.nextRefresh-t+full-1)/full))
				}
				t += sim.Time(k) * full
				b.Stats.RowHits += uint64(k)
			} else {
				k = 0
			}
			if k > 0 {
				addr = (addr + k*burst) % c.CapacityBytes
				remaining -= k * burst
				continue
			}
		}

		// One burst. Refresh stall if due (idle refreshes included, as above).
		if t >= b.nextRefresh {
			t += sim.Time(c.TRFC) * period
			b.nextRefresh += c.TREFI
			b.Stats.Refreshes++
			// All banks are precharged by refresh.
			for i := range b.openRow {
				b.openRow[i] = -1
			}
		}
		if b.openRow[bank] != row {
			if b.openRow[bank] != -1 {
				t += sim.Time(c.TRP) * period // precharge the old row
			}
			t += sim.Time(c.TRCD) * period // activate the new row
			b.openRow[bank] = row
			b.Stats.RowMisses++
		} else {
			b.Stats.RowHits++
		}
		// Column access: CAS latency for the first data beat of a read;
		// writes pay write-recovery at the tail (approximated per burst
		// only when the row will close, folded here as amortised cost 0 —
		// the dominant term is the data transfer itself).
		if !r.write {
			t += sim.Time(c.CL) * period
		}
		n := min(burst, rowRemain, remaining) // a burst walk stays in its row
		transfers := (n + int64(c.BusBytes) - 1) / int64(c.BusBytes)
		clocks := (transfers + 1) / 2 // DDR: 2 transfers per clock
		t += sim.Time(clocks) * period
		if r.write && n == rowRemain {
			// Write recovery before a subsequent activate on this bank is
			// charged when the row is eventually closed; approximate by a
			// single tWR at the end of the request's last burst in a row.
			t += sim.Time(c.TWR) * period
		}
		addr = (addr + n) % c.CapacityBytes
		remaining -= n
	}
	return t
}

// QueueLen reports waiting requests.
func (b *Buffer) QueueLen() int { return b.queue.Len() }

// Utilization is busy time over elapsed time.
func (b *Buffer) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.Stats.BusyTime) / float64(now)
}

// Pool is the set of DRAM buffers in a platform; the number of buffers is a
// first-class design-space parameter in the paper (Table II: N-DDR-buf).
// Buffers are assigned to channels round-robin.
type Pool struct {
	Buffers []*Buffer
}

// NewPool creates n identical buffers.
func NewPool(k *sim.Kernel, n int, cfg Config) (*Pool, error) {
	if n < 1 {
		return nil, errors.New("dram: pool needs at least one buffer")
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		b, err := New(k, i, cfg)
		if err != nil {
			return nil, err
		}
		p.Buffers = append(p.Buffers, b)
	}
	return p, nil
}

// ForChannel returns the buffer serving channel ch (round-robin mapping).
func (p *Pool) ForChannel(ch int) *Buffer {
	return p.Buffers[ch%len(p.Buffers)]
}

// TotalStats sums stats across the pool.
func (p *Pool) TotalStats() Stats {
	var s Stats
	for _, b := range p.Buffers {
		s.Reads += b.Stats.Reads
		s.Writes += b.Stats.Writes
		s.BytesRead += b.Stats.BytesRead
		s.BytesWrite += b.Stats.BytesWrite
		s.RowHits += b.Stats.RowHits
		s.RowMisses += b.Stats.RowMisses
		s.Refreshes += b.Stats.Refreshes
		s.BusyTime += b.Stats.BusyTime
	}
	return s
}
