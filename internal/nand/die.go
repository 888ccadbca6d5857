package nand

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Errors reported by the die state machine. A correct channel controller
// never triggers these; they exist to catch protocol violations in tests.
// Erasing an already-erased block is not an error: it costs tBERS and a P/E
// cycle like any other erase.
var (
	ErrBusy          = errors.New("nand: die busy (RB# low)")
	ErrNotErased     = errors.New("nand: programming a page that is not erased")
	ErrOutOfOrder    = errors.New("nand: pages within a block must be programmed in order")
	ErrNotProgrammed = errors.New("nand: reading an unwritten page")
	ErrPlaneMismatch = errors.New("nand: multi-plane operation needs distinct planes, same block/page offsets")
	ErrBadAddress    = errors.New("nand: address outside geometry")
)

// chunkBlocks is the number of consecutive blocks whose state is
// materialised together. A run touches few blocks per plane (a sequential
// write fills one block at a time), so a small chunk keeps the state of
// each write frontier small: at DefaultGeometry's 128 pages, a chunk holds
// 4 × (4 B frontier + 8 B P/E delta + 16 B bitmap) = 112 B, and its entry
// in the plane's list 8 B more. A sequential write, which fills one block
// on each of a die's two planes, holds 240 B of block state per die.
const chunkBlocks = 4

// plane is a set of blocks sharing a page register. Its touched chunks are
// listed in chunks, sorted by chunk index: each entry packs the plane's
// chunk index ci (block b lies in chunk b/chunkBlocks) above the die chunk
// number that holds its state, ci<<32 | dieChunk. A chunk is listed once a
// block in it has been programmed, preloaded or erased; the list stays nil
// until the plane's first touch. An untouched block reads as erased at the
// die's base P/E count.
type plane struct {
	chunks []uint64
}

// find returns the position of chunk index ci in the plane's sorted list,
// or where it would be inserted, and whether it is there.
//
//ssdx:hotpath
func (pl *plane) find(ci int) (int, bool) {
	t := pl.chunks
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(t[m]>>32) < ci {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && int(t[lo]>>32) == ci
}

// Stats aggregates operation counters for one die.
type Stats struct {
	Reads      uint64
	Programs   uint64
	Erases     uint64
	BusyTime   sim.Time
	MultiPlane uint64

	// Per-operation busy-time split: ReadTime + ProgramTime + EraseTime ==
	// BusyTime. The utilization layer cross-checks its interval recording
	// against these always-on counters.
	ReadTime    sim.Time
	ProgramTime sim.Time
	EraseTime   sim.Time
}

// Die is the cycle-accurate model of one NAND die: a state machine that is
// either ready (RB# high) or busy executing exactly one array operation.
// Data movement over the shared channel bus is *not* modelled here — the
// channel/way controller serialises bus occupancy; the die only accounts
// for array time, which is what overlaps across dies to create the
// parallelism the paper's exploration experiments quantify.
type Die struct {
	ID  int
	geo *Geometry // shared by every die of a platform
	tim *Timing   // shared by every die of a platform
	k   *sim.Kernel
	rng *sim.RNG

	planes []plane
	basePE int64 // P/E count of every block, before per-block deltas

	// State of the blocks in touched chunks, chunkBlocks per chunk, chunks
	// in the order they were first touched. Block handle h (see block)
	// indexes next and peDelta and owns pages[h*words : (h+1)*words]. The
	// arrays hold no pointers, so the garbage collector never scans them.
	next    []int32  // next programmable page (MLC in-order constraint)
	peDelta []int64  // P/E cycles above basePE
	pages   []uint64 // programmed-page bitmap
	words   int

	busyUntil sim.Time

	Stats Stats
}

// NewDie builds a die. rng drives timing jitter; pass a forked stream so
// dies vary independently (die-to-die variation). Block state is built on
// first touch, so a die costs the same to build whatever its capacity. The
// die keeps geo and tim rather than copying them, so that every die of a
// platform shares one pair; neither may change once a die is built on it.
func NewDie(k *sim.Kernel, id int, geo *Geometry, tim *Timing, rng *sim.RNG) (*Die, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := tim.Validate(); err != nil {
		return nil, err
	}
	return &Die{
		ID: id, geo: geo, tim: tim, k: k, rng: rng,
		planes: make([]plane, geo.PlanesPerDie),
		words:  (geo.PagesPerBlock + 63) / 64,
	}, nil
}

// block returns the handle of block b of plane p, or -1 while its chunk
// is untouched. It never allocates.
//
//ssdx:hotpath
func (d *Die) block(p, b int) int {
	pl := &d.planes[p]
	if i, ok := pl.find(b / chunkBlocks); ok {
		return int(uint32(pl.chunks[i]))*chunkBlocks + b%chunkBlocks
	}
	return -1
}

// touch is block that materialises the block's chunk on first use,
// inserting it into the plane's sorted list. Erase keeps a chunk, so
// reprogramming a block never allocates again.
func (d *Die) touch(p, b int) int {
	pl := &d.planes[p]
	i, ok := pl.find(b / chunkBlocks)
	if !ok {
		dc := uint64(len(d.next) / chunkBlocks)
		d.next = append(d.next, make([]int32, chunkBlocks)...)
		d.peDelta = append(d.peDelta, make([]int64, chunkBlocks)...)
		d.pages = append(d.pages, make([]uint64, chunkBlocks*d.words)...)
		pl.chunks = slices.Insert(pl.chunks, i, uint64(b/chunkBlocks)<<32|dc)
	}
	return int(uint32(pl.chunks[i]))*chunkBlocks + b%chunkBlocks
}

// programmed reports whether page of block handle h holds data.
func (d *Die) programmed(h, page int) bool {
	return h >= 0 && d.pages[h*d.words+page/64]&(1<<(uint(page)%64)) != 0
}

// nextPage returns the next programmable page of block handle h.
func (d *Die) nextPage(h int) int {
	if h < 0 {
		return 0
	}
	return int(d.next[h])
}

// markProgrammed sets page in block b of plane p and moves the block's
// write frontier past it.
func (d *Die) markProgrammed(p, b, page int) {
	h := d.touch(p, b)
	d.pages[h*d.words+page/64] |= 1 << (uint(page) % 64)
	if page >= int(d.next[h]) {
		d.next[h] = int32(page + 1)
	}
}

// peOf returns the P/E count of block handle h.
func (d *Die) peOf(h int) int64 {
	if h < 0 {
		return d.basePE
	}
	return d.basePE + d.peDelta[h]
}

// Geometry returns the die geometry.
func (d *Die) Geometry() Geometry { return *d.geo }

// Timing returns the die timing profile.
func (d *Die) Timing() Timing { return *d.tim }

// Ready reports whether the die can accept a new array operation now
// (the RB# pin in ONFI terms).
func (d *Die) Ready() bool { return d.k.Now() >= d.busyUntil }

// ReadyAt returns the time at which the die becomes ready.
func (d *Die) ReadyAt() sim.Time { return d.busyUntil }

// jitter applies the profile's uniform timing variability.
func (d *Die) jitter(t sim.Time) sim.Time {
	if d.tim.JitterPct <= 0 || d.rng == nil {
		return t
	}
	span := float64(t) * d.tim.JitterPct
	return t + sim.Time((d.rng.Float64()*2-1)*span)
}

// wear returns the normalised wear of block handle h.
func (d *Die) wear(h int) float64 {
	return float64(d.peOf(h)) / float64(d.tim.RatedPE)
}

// BlockPE returns the program/erase cycle count of a block.
func (d *Die) BlockPE(planeIdx, blockIdx int) int64 {
	return d.peOf(d.block(planeIdx, blockIdx))
}

// AvgWear returns the mean normalised wear across all blocks.
func (d *Die) AvgWear() float64 {
	n := int64(d.geo.PlanesPerDie) * int64(d.geo.BlocksPerPlane)
	total := d.basePE * n
	for _, pe := range d.peDelta {
		total += pe
	}
	return float64(total) / float64(n) / float64(d.tim.RatedPE)
}

// SetWear forces every block's P/E count to w*RatedPE. The wear-out
// experiment (Fig. 5) uses this to sample the endurance axis directly
// instead of replaying thousands of full-drive writes. It moves the base
// count and clears the touched blocks' deltas; untouched blocks cost
// nothing.
func (d *Die) SetWear(w float64) {
	d.basePE = int64(w * float64(d.tim.RatedPE))
	clear(d.peDelta)
}

// RBERAt returns the raw bit error rate of a block at its current wear.
func (d *Die) RBERAt(planeIdx, blockIdx int) float64 {
	return d.tim.RBER(d.wear(d.block(planeIdx, blockIdx)))
}

// begin marks the die busy for dur and schedules done at completion. A
// completion event is always scheduled (even with a nil callback) so that
// simulated time provably advances past every array operation.
func (d *Die) begin(dur sim.Time, done func()) {
	now := d.k.Now()
	d.busyUntil = now + dur
	d.Stats.BusyTime += dur
	if done == nil {
		done = func() {}
	}
	d.k.At(d.busyUntil, done)
}

// Read senses a page into the plane register (tR). done fires when the data
// is ready for bus transfer. Returns the array time used.
func (d *Die) Read(a Addr, done func()) (sim.Time, error) {
	if err := a.Check(*d.geo); err != nil {
		return 0, ErrBadAddress
	}
	if !d.Ready() {
		return 0, ErrBusy
	}
	if !d.programmed(d.block(a.Plane, a.Block), a.Page) {
		return 0, ErrNotProgrammed
	}
	dur := d.jitter(d.tim.TReadArray)
	d.Stats.Reads++
	d.Stats.ReadTime += dur
	d.begin(dur, done)
	return dur, nil
}

// Program commits the page register to the array (tPROG). done fires when
// the die returns to ready. Pages in a block must be programmed in order and
// only after erase, per MLC constraints.
func (d *Die) Program(a Addr, done func()) (sim.Time, error) {
	if err := a.Check(*d.geo); err != nil {
		return 0, ErrBadAddress
	}
	if !d.Ready() {
		return 0, ErrBusy
	}
	h := d.block(a.Plane, a.Block)
	if d.programmed(h, a.Page) {
		return 0, ErrNotErased
	}
	if a.Page != d.nextPage(h) {
		return 0, ErrOutOfOrder
	}
	dur := d.jitter(d.tim.ProgTimeAt(a.Page, d.wear(h)))
	d.markProgrammed(a.Plane, a.Block, a.Page)
	d.Stats.Programs++
	d.Stats.ProgramTime += dur
	d.begin(dur, done)
	return dur, nil
}

// MultiPlaneProgram programs one page in each of several planes
// concurrently; the die is busy for the slowest plane's tPROG. Addresses
// must target distinct planes at the same block/page offsets (ONFI
// multi-plane addressing restriction).
func (d *Die) MultiPlaneProgram(addrs []Addr, done func()) (sim.Time, error) {
	if len(addrs) == 0 {
		return 0, ErrBadAddress
	}
	if len(addrs) == 1 {
		return d.Program(addrs[0], done)
	}
	if !d.Ready() {
		return 0, ErrBusy
	}
	for i, a := range addrs {
		if err := a.Check(*d.geo); err != nil {
			return 0, ErrBadAddress
		}
		// Plane distinctness checked pairwise: batches are at most
		// PlanesPerDie long, so the quadratic scan is cheaper (and
		// allocation-free) versus a map on this hot path.
		for _, prev := range addrs[:i] {
			if prev.Plane == a.Plane {
				return 0, ErrPlaneMismatch
			}
		}
		if a.Block != addrs[0].Block || a.Page != addrs[0].Page {
			return 0, ErrPlaneMismatch
		}
		h := d.block(a.Plane, a.Block)
		if d.programmed(h, a.Page) {
			return 0, ErrNotErased
		}
		if a.Page != d.nextPage(h) {
			return 0, ErrOutOfOrder
		}
	}
	var dur sim.Time
	for _, a := range addrs {
		d.markProgrammed(a.Plane, a.Block, a.Page)
		t := d.jitter(d.tim.ProgTimeAt(a.Page, d.wear(d.block(a.Plane, a.Block))))
		if t > dur {
			dur = t
		}
		d.Stats.Programs++
	}
	d.Stats.MultiPlane++
	d.Stats.ProgramTime += dur
	d.begin(dur, done)
	return dur, nil
}

// EraseBlock erases a whole block (tBERS) and increments its P/E count.
// The block need not hold data: erasing an erased block still costs a cycle.
func (d *Die) EraseBlock(planeIdx, blockIdx int, done func()) (sim.Time, error) {
	if planeIdx < 0 || planeIdx >= d.geo.PlanesPerDie ||
		blockIdx < 0 || blockIdx >= d.geo.BlocksPerPlane {
		return 0, ErrBadAddress
	}
	if !d.Ready() {
		return 0, ErrBusy
	}
	h := d.touch(planeIdx, blockIdx)
	dur := d.jitter(d.tim.EraseTimeAt(d.wear(h)))
	clear(d.pages[h*d.words : (h+1)*d.words])
	d.next[h] = 0
	d.peDelta[h]++
	d.Stats.Erases++
	d.Stats.EraseTime += dur
	d.begin(dur, done)
	return dur, nil
}

// Preload marks a page as programmed without consuming simulated time or
// bus cycles. Platforms use it to model a drive that already contains data
// before a read workload starts (IOZone reads follow writes; re-simulating
// the fill would only waste wall-clock time).
func (d *Die) Preload(a Addr) error {
	if err := a.Check(*d.geo); err != nil {
		return ErrBadAddress
	}
	d.markProgrammed(a.Plane, a.Block, a.Page)
	return nil
}

// PageProgrammed reports whether a page currently holds data.
func (d *Die) PageProgrammed(a Addr) (bool, error) {
	if err := a.Check(*d.geo); err != nil {
		return false, ErrBadAddress
	}
	return d.programmed(d.block(a.Plane, a.Block), a.Page), nil
}

// String summarises the die for diagnostics.
func (d *Die) String() string {
	return fmt.Sprintf("die%d[%dpl x %dblk x %dpg, busyUntil=%v]",
		d.ID, d.geo.PlanesPerDie, d.geo.BlocksPerPlane, d.geo.PagesPerBlock, d.busyUntil)
}
