// Package nand models the non-volatile memory subsystem of the SSD at the
// cycle-accurate abstraction the paper assigns to it (§III-C3): dies are
// hierarchically organised in planes, blocks and pages; program and read
// work on a page basis while erase is blockwise (in-place update is
// inhibited); operation timings fluctuate with the operation type, the MLC
// page type (lower/upper), die-to-die variation, and wear-out. The model is
// an ONFI-style command target: the channel/way controller (internal/ctrl)
// owns the shared bus and issues array operations here.
package nand

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Geometry describes the hierarchical organisation of one die.
type Geometry struct {
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageBytes      int // user data per page
	SpareBytes     int // out-of-band area (ECC parity, metadata)
}

// Validate checks geometry sanity.
func (g Geometry) Validate() error {
	if g.PlanesPerDie < 1 || g.BlocksPerPlane < 1 || g.PagesPerBlock < 1 || g.PageBytes < 1 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// Addr identifies a page within a die.
type Addr struct {
	Plane int
	Block int
	Page  int
}

// Check validates the address against g.
func (a Addr) Check(g Geometry) error {
	if a.Plane < 0 || a.Plane >= g.PlanesPerDie ||
		a.Block < 0 || a.Block >= g.BlocksPerPlane ||
		a.Page < 0 || a.Page >= g.PagesPerBlock {
		return fmt.Errorf("nand: address %+v outside geometry %+v", a, g)
	}
	return nil
}

// Timing captures the interface and array timing of a NAND component. The
// bus-side values are consumed by the channel controller; the array-side
// values drive the die state machine. Defaults follow the MLC device the
// paper models: tPROG 900 µs–3 ms, tREAD 60 µs, tBERS 1–10 ms [20]. Its
// methods take a pointer, because the controller and every die call them
// per operation on one shared *Timing and a value receiver copies the
// whole struct per call.
type Timing struct {
	// Array operation times (before wear/jitter adjustment).
	TReadArray sim.Time // tR: array-to-register sense time
	TProgLower sim.Time // tPROG for fast (lower) MLC pages
	TProgUpper sim.Time // tPROG for slow (upper) MLC pages
	TBersBase  sim.Time // tBERS at zero wear
	TBersMax   sim.Time // tBERS ceiling at end of life

	// Interface timing (ONFI-style). One data cycle moves one byte.
	DataCycle sim.Time // per-byte transfer time on the channel bus
	CmdCycle  sim.Time // per command byte (e.g. 00h/30h, 80h/10h)
	AddrCycle sim.Time // per address byte
	AddrBytes int      // address cycles per operation (5 for large devices)

	// Variability and wear behaviour.
	JitterPct     float64 // uniform +/- jitter applied to array times
	RatedPE       int64   // rated program/erase endurance of a block
	ProgWearGain  float64 // fractional tPROG reduction at rated endurance
	EraseWearGain float64 // fractional tBERS growth at rated endurance

	// Raw bit error rate model: RBER(w) = RBER0 * exp(RBERGrowth * w)
	// with w the normalised wear (PE/RatedPE).
	RBER0      float64
	RBERGrowth float64
}

// Validate checks timing sanity.
func (t *Timing) Validate() error {
	if t.TReadArray <= 0 || t.TProgLower <= 0 || t.TProgUpper < t.TProgLower {
		return errors.New("nand: invalid array timing")
	}
	if t.DataCycle <= 0 {
		return errors.New("nand: invalid bus timing")
	}
	if t.RatedPE <= 0 {
		return errors.New("nand: rated endurance must be positive")
	}
	return nil
}

// DataTransferTime returns the channel-bus occupancy to move n bytes.
func (t *Timing) DataTransferTime(n int) sim.Time {
	return sim.Time(n) * t.DataCycle
}

// CommandOverhead returns bus occupancy for a command+address sequence.
func (t *Timing) CommandOverhead() sim.Time {
	return 2*t.CmdCycle + sim.Time(t.AddrBytes)*t.AddrCycle
}

// RBER returns the raw bit error rate at normalised wear w (clamped to
// [0, 1.2]; devices are usable slightly past rated endurance with degraded
// reliability, which the adaptive-ECC experiment exercises).
func (t *Timing) RBER(w float64) float64 {
	if w < 0 {
		w = 0
	}
	if w > 1.2 {
		w = 1.2
	}
	return t.RBER0 * math.Exp(t.RBERGrowth*w)
}

// ProgTimeAt returns the nominal program time for a page index at wear w.
// MLC pairing is approximated as even=lower (fast), odd=upper (slow); wear
// speeds programming up as tunnel-oxide trapping assists charge placement.
func (t *Timing) ProgTimeAt(page int, w float64) sim.Time {
	base := t.TProgLower
	if page%2 == 1 {
		base = t.TProgUpper
	}
	if w > 1.2 {
		w = 1.2
	}
	if w > 0 && t.ProgWearGain > 0 {
		base = sim.Time(float64(base) * (1 - t.ProgWearGain*w))
	}
	return base
}

// EraseTimeAt returns the nominal erase time at wear w; erase slows down as
// blocks age (more erase pulses needed), bounded by TBersMax.
func (t *Timing) EraseTimeAt(w float64) sim.Time {
	if w < 0 {
		w = 0
	}
	d := sim.Time(float64(t.TBersBase) * (1 + t.EraseWearGain*w))
	if t.TBersMax > 0 && d > t.TBersMax {
		d = t.TBersMax
	}
	return d
}

// ProfileExplore is the conservative steady-state MLC profile used by the
// design-space-exploration experiments (Figs. 3 and 4): worst-case program
// time from the paper's stated range and an asynchronous ONFI interface.
func ProfileExplore() Timing {
	return Timing{
		TReadArray:    60 * sim.Microsecond,
		TProgLower:    3 * sim.Millisecond,
		TProgUpper:    3 * sim.Millisecond,
		TBersBase:     2 * sim.Millisecond,
		TBersMax:      10 * sim.Millisecond,
		DataCycle:     40 * sim.Nanosecond, // 25 MB/s async interface
		CmdCycle:      40 * sim.Nanosecond,
		AddrCycle:     40 * sim.Nanosecond,
		AddrBytes:     5,
		JitterPct:     0.03,
		RatedPE:       3000,
		ProgWearGain:  0.15,
		EraseWearGain: 2.0,
		RBER0:         5e-5,
		RBERGrowth:    3.3,
	}
}

// ProfileVertex is the typical-MLC profile used to validate against the
// OCZ Vertex 120 GB (Fig. 2): mixed lower/upper program times averaging
// ~1.4 ms and an ONFI 2.0 source-synchronous interface.
func ProfileVertex() Timing {
	return Timing{
		TReadArray:    60 * sim.Microsecond,
		TProgLower:    900 * sim.Microsecond,
		TProgUpper:    2400 * sim.Microsecond,
		TBersBase:     1500 * sim.Microsecond,
		TBersMax:      10 * sim.Millisecond,
		DataCycle:     6 * sim.Nanosecond, // ~166 MB/s ONFI 2.0
		CmdCycle:      25 * sim.Nanosecond,
		AddrCycle:     25 * sim.Nanosecond,
		AddrBytes:     5,
		JitterPct:     0.03,
		RatedPE:       3000,
		ProgWearGain:  0.15,
		EraseWearGain: 2.0,
		RBER0:         5e-5,
		RBERGrowth:    3.3,
	}
}

// DefaultGeometry returns the 4 KiB-page MLC geometry used throughout:
// 2 planes x 2048 blocks x 128 pages x 4 KiB = 2 GiB per die.
func DefaultGeometry() Geometry {
	return Geometry{
		PlanesPerDie:   2,
		BlocksPerPlane: 2048,
		PagesPerBlock:  128,
		PageBytes:      4096,
		SpareBytes:     224,
	}
}

// SmallGeometry is a reduced geometry for fast unit/integration tests.
func SmallGeometry() Geometry {
	return Geometry{
		PlanesPerDie:   2,
		BlocksPerPlane: 16,
		PagesPerBlock:  8,
		PageBytes:      4096,
		SpareBytes:     224,
	}
}
