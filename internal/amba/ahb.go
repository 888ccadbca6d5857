// Package amba models the SSD's system interconnect: an AMBA v2.0 AHB bus
// (paper §III-B2) running at the CPU frequency, configured for up to 16
// masters and 16 slaves with a round-robin arbiter, burst transfers and
// split transactions. The paper keeps this block at RTL-equivalent accuracy
// because arbitration and burst behaviour bound the maximum achievable SSD
// throughput — behavioural bus models hide exactly that ceiling (and Fig. 4
// shows the interconnect becoming the bottleneck once PCIe removes the host
// limit). A multi-layer variant (one arbiter per layer) is provided for the
// "future architectures" the paper mentions; the validated platform uses a
// single shared layer.
package amba

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	ClockMHz      float64 // bus clock (paper: same as CPU, 200 MHz)
	BusBytes      int     // data width in bytes (AHB: 4)
	BurstBeats    int     // beats per burst (INCR16 -> 16)
	MaxMasters    int     // paper: 16
	MaxSlaves     int     // paper: 16 (bookkeeping only)
	MaxGrantBytes int64   // data moved per arbitration grant
	Layers        int     // 1 = shared AHB; >1 = multi-layer AHB
}

// DefaultConfig is the platform's validated interconnect: single-layer
// AMBA AHB, 32-bit, 200 MHz, INCR16 bursts, 1 KiB per grant.
func DefaultConfig() Config {
	return Config{
		ClockMHz:      200,
		BusBytes:      4,
		BurstBeats:    16,
		MaxMasters:    16,
		MaxSlaves:     16,
		MaxGrantBytes: 1024,
		Layers:        1,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.ClockMHz <= 0 || c.BusBytes <= 0 || c.BurstBeats <= 0 {
		return fmt.Errorf("amba: invalid config %+v", c)
	}
	if c.MaxMasters < 1 || c.MaxGrantBytes < int64(c.BusBytes) {
		return fmt.Errorf("amba: invalid master/grant limits %+v", c)
	}
	if c.Layers < 1 {
		return errors.New("amba: at least one layer required")
	}
	return nil
}

// grantCycles returns the bus occupancy in cycles to move n bytes in one
// grant: data beats plus one pipelined address cycle per burst plus one
// arbitration/handover cycle.
func (c Config) grantCycles(n int64) int64 {
	beats := (n + int64(c.BusBytes) - 1) / int64(c.BusBytes)
	bursts := (beats + int64(c.BurstBeats) - 1) / int64(c.BurstBeats)
	return beats + bursts + 1
}

// Stats aggregates bus activity.
type Stats struct {
	Grants   uint64
	Bytes    uint64
	BusyTime sim.Time
}

// Bus is the arbitrated interconnect.
type Bus struct {
	cfg Config
	k   *sim.Kernel
	clk *sim.Clock

	layers  []*layer
	masters []*Master
	full    sim.Time // a full chunk's (MaxGrantBytes) window

	xferPool sim.FreeList[xfer]     // recycled Transfer state (hot-path allocation control)
	delPool  sim.FreeList[delivery] // recycled per-grant delivery records

	// OnGrant, when set, observes every granted occupancy window with the
	// serving layer's index. Tracing hook: nil by default, one branch cost.
	// Set it before the first Transfer: while it is set, every chunk is
	// granted on its own (see layer.run).
	OnGrant func(layer int, start, end sim.Time)
}

// layer is one arbitrated crossbar layer with its own round-robin pointer.
type layer struct {
	bus       *Bus
	idx       int       // position in Bus.layers (tracing identity)
	masters   []*Master // the masters on this layer, in ID order
	busyUntil sim.Time
	rrNext    int // next master ID to consider (round-robin fairness)
	// ready has bit s set while the master in slot s has pending work, so
	// the arbiter finds the next requester a word at a time instead of
	// asking every master.
	ready []uint64
	// run is the transfer the layer serves as one kernel chain, if any.
	run   run
	Stats Stats
}

// run is a whole transfer granted at once. When the chosen master is the
// only one ready, each chunk's delivery would only grant the same master's
// next chunk, so those deliveries ride the kernel's chain as pure ticks and
// the last chunk's delivery is the chain's final event. The grant applies
// the whole transfer (the pop, the ready bit, busyUntil and the stats) up
// front; any Transfer on the layer cuts the run first (cut), which puts the
// per-chunk state back as it stands at the cut, so arbitration carries on
// exactly as if every chunk had been granted on its own.
type run struct {
	d     *delivery // the last chunk's delivery, the chain's event; nil: no run
	start sim.Time  // the first chunk's grant
	n     int64     // chunks
	bytes int64     // the transfer's size
}

// Master is an attach point for a DMA engine or CPU port.
type Master struct {
	ID    int
	Name  string
	bus   *Bus
	layer *layer
	slot  int // position in layer.masters (its bit in layer.ready)

	pending sim.FIFO[*xfer]

	Bytes  uint64
	Grants uint64
}

// xfer is one in-flight Transfer: a chunked move whose grants are
// individually arbitrated (the head chunk of the head transfer is served per
// grant, so long moves still cannot starve other masters). Transfers are
// pooled on the bus so the steady-state DMA path never allocates.
type xfer struct {
	m         *Master
	remaining int64
	done      func()
}

// delivery is one granted chunk awaiting its completion event. The state
// lives per grant — not on the xfer — because a same-timestamp kick from an
// unrelated completion may legally grant a transfer's next chunk before the
// previous chunk's completion callback has run. fire is pre-bound so pooled
// deliveries never need a fresh closure.
type delivery struct {
	x    *xfer
	last bool
	fire func()
}

// NewBus builds the interconnect.
func NewBus(k *sim.Kernel, cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Bus{cfg: cfg, k: k, clk: sim.NewClock("ahb", cfg.ClockMHz)}
	b.full = b.clk.Cycles(cfg.grantCycles(cfg.MaxGrantBytes))
	for i := 0; i < cfg.Layers; i++ {
		b.layers = append(b.layers, &layer{bus: b, idx: i})
	}
	return b, nil
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// AttachMaster registers a new bus master. Masters are spread across layers
// round-robin (multi-layer AHB gives each group of masters a private path).
func (b *Bus) AttachMaster(name string) (*Master, error) {
	if len(b.masters) >= b.cfg.MaxMasters*b.cfg.Layers {
		return nil, fmt.Errorf("amba: master limit %d reached", b.cfg.MaxMasters*b.cfg.Layers)
	}
	l := b.layers[len(b.masters)%b.cfg.Layers]
	m := &Master{ID: len(b.masters), Name: name, bus: b, layer: l, slot: len(l.masters)}
	b.masters = append(b.masters, m)
	l.masters = append(l.masters, m)
	if m.slot>>6 == len(l.ready) {
		l.ready = append(l.ready, 0)
	}
	return m, nil
}

// TotalStats sums activity across layers.
func (b *Bus) TotalStats() Stats {
	var s Stats
	for _, l := range b.layers {
		s.Grants += l.Stats.Grants
		s.Bytes += l.Stats.Bytes
		s.BusyTime += l.Stats.BusyTime
	}
	return s
}

// Utilization of the whole interconnect (busy time over elapsed, averaged
// across layers).
func (b *Bus) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.TotalStats().BusyTime) / float64(now) / float64(len(b.layers))
}

// Transfer moves `bytes` across the interconnect on behalf of m. The move is
// split into grant-sized chunks, each individually arbitrated (so long
// transfers cannot starve other masters — the round-robin property the paper
// highlights). done, if non-nil, runs once, at the end of the final
// chunk's window. Grant windows are observable only through Bus.OnGrant.
func (m *Master) Transfer(bytes int64, done func()) error {
	if bytes <= 0 {
		return errors.New("amba: transfer of non-positive size")
	}
	if m.layer.run.d != nil {
		m.layer.cut()
	}
	x := m.bus.allocXfer()
	x.m = m
	x.remaining = bytes
	x.done = done
	m.pending.Push(x)
	m.layer.ready[m.slot>>6] |= 1 << (m.slot & 63)
	m.layer.kick()
	return nil
}

// allocXfer takes a pooled transfer or builds a fresh one.
func (b *Bus) allocXfer() *xfer {
	if x := b.xferPool.Take(); x != nil {
		return x
	}
	return &xfer{}
}

// allocDelivery takes a pooled delivery record (or builds one with its fire
// callback).
func (b *Bus) allocDelivery() *delivery {
	if d := b.delPool.Take(); d != nil {
		return d
	}
	d := &delivery{}
	d.fire = func() {
		x, last := d.x, d.last
		l := x.m.layer
		if l.run.d == d {
			l.run.d = nil // the run's final event: the chain is spent
		}
		d.x = nil
		b.delPool.Give(d)
		if last {
			// Recycle before the callback: it may start a new transfer, and
			// everything it needs is already copied out.
			done := x.done
			x.m, x.done = nil, nil
			b.xferPool.Give(x)
			if done != nil {
				done()
			}
		}
		l.kick()
	}
	return d
}

// kick grants the layer to the next pending master (round-robin).
//
//ssdx:hotpath
func (l *layer) kick() {
	now := l.bus.k.Now()
	if l.busyUntil > now {
		return
	}
	// Find the next master on this layer with pending work, cyclically
	// from the first one with ID >= rrNext. Layer l holds masters l.idx,
	// l.idx+Layers, ..., so that one sits at slot ceil((rrNext-idx)/Layers).
	first := 0
	if d := l.rrNext - l.idx; d > 0 {
		first = (d + l.bus.cfg.Layers - 1) / l.bus.cfg.Layers
	}
	j := l.nextReady(first)
	if j < 0 {
		return
	}
	chosen := l.masters[j]
	l.rrNext = (chosen.ID + 1) % len(l.bus.masters)
	x := chosen.pending.Front()
	nb := x.remaining
	if nb > l.bus.cfg.MaxGrantBytes {
		nb = l.bus.cfg.MaxGrantBytes
		if l.bus.OnGrant == nil && l.onlyReady(j) && l.startRun(chosen, j, x, now) {
			return
		}
	}
	x.remaining -= nb
	if x.remaining == 0 {
		// Final chunk granted: the next grant serves the master's next
		// transfer; this one completes via its in-flight fire event.
		chosen.pending.Pop()
		if chosen.pending.Len() == 0 {
			l.ready[j>>6] &^= 1 << (j & 63)
		}
	}

	start := l.bus.clk.NextEdge(now)
	dur := l.bus.full
	if nb < l.bus.cfg.MaxGrantBytes {
		dur = l.bus.clk.Cycles(l.bus.cfg.grantCycles(nb))
	}
	end := start + dur
	l.busyUntil = end
	l.Stats.Grants++
	l.Stats.Bytes += uint64(nb)
	l.Stats.BusyTime += dur
	if l.bus.OnGrant != nil {
		l.bus.OnGrant(l.idx, start, end)
	}
	chosen.Grants++
	chosen.Bytes += uint64(nb)
	d := l.bus.allocDelivery()
	d.x, d.last = x, x.remaining == 0
	l.bus.k.At(end, d.fire)
}

// onlyReady reports whether slot j is the only one with pending work.
//
//ssdx:hotpath
func (l *layer) onlyReady(j int) bool {
	for w, b := range l.ready {
		if w == j>>6 {
			b &^= 1 << (j & 63)
		}
		if b != 0 {
			return false
		}
	}
	return true
}

// startRun grants the whole of x, which needs more than one chunk, as a
// run, and reports false, changing nothing, when the kernel's chain is
// taken (by another layer's run).
//
//ssdx:hotpath
func (l *layer) startRun(m *Master, j int, x *xfer, now sim.Time) bool {
	b := l.bus
	g := b.cfg.MaxGrantBytes
	n := (x.remaining + g - 1) / g
	start := b.clk.NextEdge(now)
	end := start + sim.Time(n-1)*b.full + b.clk.Cycles(b.cfg.grantCycles(x.remaining-(n-1)*g))
	d := b.allocDelivery()
	if !b.k.StartChain(start+b.full, b.full, int(n-1), end, d.fire) {
		b.delPool.Give(d)
		return false
	}
	d.x, d.last = x, true
	l.run = run{d: d, start: start, n: n, bytes: x.remaining}
	x.remaining = 0
	m.pending.Pop()
	if m.pending.Len() == 0 {
		l.ready[j>>6] &^= 1 << (j & 63)
	}
	l.busyUntil = end
	l.Stats.Grants += uint64(n)
	l.Stats.Bytes += uint64(l.run.bytes)
	l.Stats.BusyTime += end - start
	m.Grants += uint64(n)
	m.Bytes += uint64(l.run.bytes)
	return true
}

// cut ends the layer's run at its pending chunk boundary: the chunk then
// in flight gets a real delivery event, under the seq the chain gave it,
// and the transfer's remaining chunks go back to the per-chunk arbiter.
//
//ssdx:hotpath
func (l *layer) cut() {
	r := l.run
	l.run.d = nil
	granted := int64(l.bus.k.CutChain(r.d.fire)) + 1
	if granted == r.n {
		return // the last chunk is in flight: the state is already exact
	}
	x, m := r.d.x, r.d.x.m
	r.d.last = false
	x.remaining = r.bytes - granted*l.bus.cfg.MaxGrantBytes
	m.pending.PushFront(x)
	l.ready[m.slot>>6] |= 1 << (m.slot & 63)
	busy := r.start + sim.Time(granted)*l.bus.full
	l.Stats.Grants -= uint64(r.n - granted)
	l.Stats.Bytes -= uint64(x.remaining)
	l.Stats.BusyTime -= l.busyUntil - busy
	m.Grants -= uint64(r.n - granted)
	m.Bytes -= uint64(x.remaining)
	l.busyUntil = busy
}

// nextReady returns the first slot at or after first whose master has
// pending work, wrapping past the last slot, or -1 when none has.
//
//ssdx:hotpath
func (l *layer) nextReady(first int) int {
	w := first >> 6
	if w < len(l.ready) {
		if b := l.ready[w] &^ (1<<(first&63) - 1); b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		for w++; w < len(l.ready); w++ {
			if l.ready[w] != 0 {
				return w<<6 + bits.TrailingZeros64(l.ready[w])
			}
		}
	}
	// Nothing at or after first: the lowest ready slot, if any, is the
	// next one cyclically.
	for w, b := range l.ready {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}
