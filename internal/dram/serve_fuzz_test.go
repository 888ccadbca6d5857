package dram

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refModel is the per-burst DRAM timing model: it walks every access one
// burst at a time. Buffer.serve jumps runs of identical bursts in closed
// form and must land on exactly the same times and counts; FuzzDRAMServe and
// TestServeMatchesReference drive both with the same requests.
type refModel struct {
	cfg         Config
	period      sim.Time
	openRow     []int64
	nextRefresh sim.Time
	stats       Stats
}

func newRefModel(cfg Config, period sim.Time) *refModel {
	m := &refModel{cfg: cfg, period: period, nextRefresh: cfg.TREFI, openRow: make([]int64, cfg.Banks)}
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	return m
}

func (m *refModel) serve(t sim.Time, write bool, addr, bytes int64) sim.Time {
	c := m.cfg
	cyc := func(n int) sim.Time { return sim.Time(n) * m.period }
	burst := c.BurstBytes()
	remaining := bytes
	for remaining > 0 {
		if t >= m.nextRefresh {
			t += cyc(c.TRFC)
			m.nextRefresh += c.TREFI
			m.stats.Refreshes++
			for i := range m.openRow {
				m.openRow[i] = -1
			}
		}
		rowIdx := addr / c.RowBytes
		bank := int(rowIdx % int64(c.Banks))
		row := rowIdx / int64(c.Banks)
		if m.openRow[bank] != row {
			if m.openRow[bank] != -1 {
				t += cyc(c.TRP)
			}
			t += cyc(c.TRCD)
			m.openRow[bank] = row
			m.stats.RowMisses++
		} else {
			m.stats.RowHits++
		}
		if !write {
			t += cyc(c.CL)
		}
		n := burst
		rowRemain := c.RowBytes - addr%c.RowBytes
		if n > rowRemain {
			n = rowRemain
		}
		if n > remaining {
			n = remaining
		}
		transfers := (n + int64(c.BusBytes) - 1) / int64(c.BusBytes)
		clocks := (transfers + 1) / 2
		t += sim.Time(clocks) * m.period
		if write && n == rowRemain {
			t += cyc(c.TWR)
		}
		addr = (addr + n) % c.CapacityBytes
		remaining -= n
	}
	return t
}

// access mirrors Buffer.kick for a request that finds the buffer idle.
func (m *refModel) access(clk *sim.Clock, now sim.Time, write bool, addr, bytes int64) (start, end sim.Time) {
	start = clk.NextEdge(now)
	end = m.serve(start, write, addr%m.cfg.CapacityBytes, bytes)
	m.stats.BusyTime += end - start
	if write {
		m.stats.Writes++
		m.stats.BytesWrite += uint64(bytes)
	} else {
		m.stats.Reads++
		m.stats.BytesRead += uint64(bytes)
	}
	return start, end
}

// serveOp is one request: it arrives gap after the previous one completed.
type serveOp struct {
	write       bool
	addr, bytes int64
	gap         sim.Time
}

// checkServe runs ops through a Buffer and the reference model and fails on
// the first request after which the service window, any Stats field, the
// open rows or the refresh schedule differ.
func checkServe(t *testing.T, cfg Config, ops []serveOp) {
	t.Helper()
	k := sim.NewKernel()
	b, err := New(k, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(cfg, b.clk.Period)
	var start, end, doneAt sim.Time
	b.OnServe = func(_ bool, s, e sim.Time) { start, end = s, e }
	done := func() { doneAt = k.Now() }
	for i, op := range ops {
		at := k.Now() + op.gap
		k.At(at, func() {
			if err := b.Access(op.write, op.addr, op.bytes, done); err != nil {
				t.Fatal(err)
			}
		})
		k.RunAll()
		wantStart, wantEnd := ref.access(b.clk, at, op.write, op.addr, op.bytes)
		if start != wantStart || end != wantEnd || doneAt != wantEnd {
			t.Fatalf("op %d %+v: window [%d, %d] done at %d, reference [%d, %d] (config %+v)",
				i, op, start, end, doneAt, wantStart, wantEnd, cfg)
		}
		if b.Stats != ref.stats {
			t.Fatalf("op %d %+v: stats %+v, reference %+v (config %+v)", i, op, b.Stats, ref.stats, cfg)
		}
		if !slices.Equal(b.openRow, ref.openRow) || b.nextRefresh != ref.nextRefresh {
			t.Fatalf("op %d %+v: open rows %v next refresh %d, reference %v %d (config %+v)",
				i, op, b.openRow, b.nextRefresh, ref.openRow, ref.nextRefresh, cfg)
		}
	}
}

// fuzzTiming packs CL, tRCD, tRP, tWR (4 bits each) and tRFC (8 bits).
func fuzzTiming(cl, trcd, trp, twr, trfc int) uint32 {
	return uint32(cl | trcd<<4 | trp<<8 | twr<<12 | trfc<<16)
}

// fuzzOpBytes is the size of one encoded request: a flags byte (bit 0 =
// write), the address (uint32), the size (uint16) and the idle gap before
// it in nanoseconds (uint32), little-endian.
const fuzzOpBytes = 11

func fuzzOp(write bool, addr uint32, bytes uint16, gapNs uint32) []byte {
	op := make([]byte, fuzzOpBytes)
	if write {
		op[0] = 1
	}
	binary.LittleEndian.PutUint32(op[1:], addr)
	binary.LittleEndian.PutUint16(op[5:], bytes)
	binary.LittleEndian.PutUint32(op[7:], gapNs)
	return op
}

func FuzzDRAMServe(f *testing.F) {
	ddr2 := fuzzTiming(5, 5, 5, 6, 51)
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	// A write that crosses the end of capacity inside a row: the burst past
	// the end wraps to address 0's row, so a run of bursts jumped past the
	// end without wrapping lands in the wrong banks and rows.
	f.Add(uint16(400), uint8(1), uint8(12), uint8(5), uint16(1855), uint32(64<<20), uint32(7800000), ddr2,
		seq(fuzzOp(true, 67106411, 6769, 0)))
	// The platform's DDR2-800 x16 profile: sequential 4 KiB writes, reads,
	// and an idle gap of many tREFI that leaves the refresh schedule lagging.
	f.Add(uint16(400), uint8(2), uint8(8), uint8(8), uint16(2048), uint32(64<<20), uint32(7800000), ddr2,
		seq(fuzzOp(true, 0, 4096, 0), fuzzOp(true, 4096, 4096, 0), fuzzOp(false, 100, 4096, 500000),
			fuzzOp(true, 8191, 4096, 3000000), fuzzOp(false, 8191, 1000, 10)))
	// Capacity smaller than a row; tREFI shorter than one access.
	f.Add(uint16(333), uint8(4), uint8(4), uint8(3), uint16(4096), uint32(1000), uint32(900000), ddr2,
		seq(fuzzOp(true, 999, 5000, 0), fuzzOp(false, 17, 3000, 40000), fuzzOp(true, 3, 1, 0)))
	// Capacity not a multiple of the row size, a burst wider than the row.
	f.Add(uint16(800), uint8(8), uint8(16), uint8(2), uint16(100), uint32(12345), uint32(2000000), fuzzTiming(7, 3, 9, 15, 200),
		seq(fuzzOp(false, 12300, 9000, 0), fuzzOp(true, 12344, 777, 100000), fuzzOp(true, 0, 12345, 0)))
	f.Fuzz(func(t *testing.T, mhz uint16, bus, burstLen, banks uint8, rowBytes uint16,
		capacity, trefi, timing uint32, ops []byte) {
		cfg := Config{
			ClockMHz:      float64(max(1, mhz%1001)),
			BusBytes:      max(1, int(bus%17)),
			BurstLen:      max(1, int(burstLen%33)),
			Banks:         max(1, int(banks%17)),
			RowBytes:      max(1, int64(rowBytes)),
			CL:            int(timing & 15),
			TRCD:          int(timing >> 4 & 15),
			TRP:           int(timing >> 8 & 15),
			TWR:           int(timing >> 12 & 15),
			TRFC:          int(timing >> 16 & 255),
			TREFI:         sim.Time(trefi),
			CapacityBytes: max(1, int64(capacity)),
		}
		var reqs []serveOp
		for len(ops) >= fuzzOpBytes && len(reqs) < 64 {
			reqs = append(reqs, serveOp{
				write: ops[0]&1 != 0,
				addr:  int64(binary.LittleEndian.Uint32(ops[1:])),
				bytes: max(1, int64(binary.LittleEndian.Uint16(ops[5:]))),
				gap:   sim.Time(binary.LittleEndian.Uint32(ops[7:])) * sim.Nanosecond,
			})
			ops = ops[fuzzOpBytes:]
		}
		checkServe(t, cfg, reqs)
	})
}

// TestServeMatchesReference checks Buffer.serve against the per-burst model
// on seeded random configurations and request streams, so every test run
// covers more than the fuzz corpus.
func TestServeMatchesReference(t *testing.T) {
	rng := sim.NewRNG(19)
	for c := 0; c < 300; c++ {
		capacity := int64(rng.Intn(1<<20) + 1)
		if rng.Bool(0.2) {
			capacity = int64(rng.Intn(4096) + 1) // often smaller than a row
		}
		cfg := Config{
			ClockMHz:      float64(rng.Intn(800) + 100),
			BusBytes:      rng.Intn(8) + 1,
			BurstLen:      rng.Intn(16) + 1,
			Banks:         rng.Intn(8) + 1,
			RowBytes:      int64(rng.Intn(4096) + 1),
			CL:            rng.Intn(8),
			TRCD:          rng.Intn(8),
			TRP:           rng.Intn(8),
			TWR:           rng.Intn(8),
			TRFC:          rng.Intn(100),
			TREFI:         rng.Range(10*sim.Nanosecond, 20*sim.Microsecond),
			CapacityBytes: capacity,
		}
		ops := make([]serveOp, 20)
		for i := range ops {
			ops[i] = serveOp{
				write: rng.Bool(0.5),
				addr:  rng.Int63n(2 * capacity),
				bytes: int64(rng.Intn(8192) + 1),
			}
			if rng.Bool(0.3) {
				ops[i].gap = rng.Range(0, 500*sim.Microsecond)
			}
		}
		checkServe(t, cfg, ops)
	}
}
