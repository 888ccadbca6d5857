package ftl

import (
	"errors"
	"fmt"
)

// Geometry describes the physical space a Mapper manages. A "unit" is an
// independently programmable allocation target (a plane); the mapper stripes
// consecutive writes across units to exploit array parallelism, which is the
// layout channel/way controllers expect.
type Geometry struct {
	Units         int // total planes across channels/ways/dies
	BlocksPerUnit int
	PagesPerBlock int
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if g.Units < 1 || g.BlocksPerUnit < 2 || g.PagesPerBlock < 1 {
		return fmt.Errorf("ftl: invalid geometry %+v", g)
	}
	return nil
}

// TotalPages is the raw physical page count.
func (g Geometry) TotalPages() int64 {
	return int64(g.Units) * int64(g.BlocksPerUnit) * int64(g.PagesPerBlock)
}

// PPN is a physical page number; Decompose splits it into unit/block/page.
type PPN int64

// InvalidPPN marks an unmapped logical page.
const InvalidPPN PPN = -1

// Decompose splits a PPN into its (unit, block, page) coordinates.
func (g Geometry) Decompose(p PPN) (unit, block, page int) {
	pp := int64(p)
	page = int(pp % int64(g.PagesPerBlock))
	pp /= int64(g.PagesPerBlock)
	block = int(pp % int64(g.BlocksPerUnit))
	unit = int(pp / int64(g.BlocksPerUnit))
	return
}

// Compose builds a PPN from coordinates.
func (g Geometry) Compose(unit, block, page int) PPN {
	return PPN((int64(unit)*int64(g.BlocksPerUnit)+int64(block))*int64(g.PagesPerBlock) + int64(page))
}

// OpKind labels a physical operation the FTL asks the backend to perform.
type OpKind uint8

// Physical operation kinds emitted by the mapper.
const (
	OpProgram OpKind = iota // program Target
	OpCopy                  // read Source, program Target (GC relocation)
	OpErase                 // erase Target's block
)

// Op is one physical operation, in issue order.
type Op struct {
	Kind   OpKind
	Target PPN
	Source PPN // valid for OpCopy
}

// Stats counts mapper activity; PhysProgram/User gives the measured WAF.
type Stats struct {
	UserWrites   int64
	PhysPrograms int64
	GCCopies     int64
	Erases       int64
	Trims        int64
	ReadHits     int64
	ReadMisses   int64
}

// unitState tracks per-unit allocation.
type unitState struct {
	activeBlock int
	nextPage    int
	freeBlocks  []int  // stack of erased block ids
	free        []bool // free[b]: block b is in freeBlocks
}

// Mapper is a page-mapped FTL: logical page -> physical page with greedy
// garbage collection, dynamic wear leveling (allocation prefers low-erase
// blocks) and TRIM support. It is a synchronous decision engine: every call
// returns the ordered physical operations the backend must execute, so it
// plugs into the event-driven platform or runs standalone in tests.
type Mapper struct {
	geo Geometry

	l2p   []PPN   // logical page -> physical
	p2l   []int64 // physical page -> logical, -1 invalid
	valid [][]int // [unit][block] valid page count
	pe    [][]int // [unit][block] erase counts (wear leveling input)

	units        []unitState
	nextUnit     int // round-robin stripe pointer
	logicalPages int64
	gcFreeTarget int

	// WLThreshold triggers static wear leveling: when a unit's erase-count
	// spread exceeds it, the coldest data block is forcibly relocated so
	// static data stops pinning low-wear blocks.
	WLThreshold int

	Stats Stats
}

// CheckSpace reports whether a Mapper can expose logicalPages of geo: the
// geometry must be valid and leave two blocks per unit of spare space beyond
// the data, the reserve garbage collection runs on. NewMapper applies it,
// and config.Validate applies it to a platform before anything is built.
func CheckSpace(geo Geometry, logicalPages int64) error {
	if err := geo.Validate(); err != nil {
		return err
	}
	if logicalPages < 1 {
		return errors.New("ftl: need at least one logical page")
	}
	minSpare := int64(geo.Units) * int64(geo.PagesPerBlock) * 2
	if logicalPages > geo.TotalPages()-minSpare {
		return fmt.Errorf("ftl: logical space %d too large for raw %d (need %d spare pages)",
			logicalPages, geo.TotalPages(), minSpare)
	}
	return nil
}

// NewMapper builds a mapper exposing logicalPages of the geometry's raw
// space; the remainder is over-provisioning for GC.
func NewMapper(geo Geometry, logicalPages int64) (*Mapper, error) {
	if err := CheckSpace(geo, logicalPages); err != nil {
		return nil, err
	}
	m := &Mapper{geo: geo, logicalPages: logicalPages, gcFreeTarget: 2, WLThreshold: 16}
	m.l2p = make([]PPN, logicalPages)
	for i := range m.l2p {
		m.l2p[i] = InvalidPPN
	}
	m.p2l = make([]int64, geo.TotalPages())
	for i := range m.p2l {
		m.p2l[i] = -1
	}
	m.valid = make([][]int, geo.Units)
	m.pe = make([][]int, geo.Units)
	m.units = make([]unitState, geo.Units)
	for u := 0; u < geo.Units; u++ {
		m.valid[u] = make([]int, geo.BlocksPerUnit)
		m.pe[u] = make([]int, geo.BlocksPerUnit)
		us := &m.units[u]
		us.activeBlock = -1
		us.freeBlocks = make([]int, geo.BlocksPerUnit)
		us.free = make([]bool, geo.BlocksPerUnit)
		for b := range us.freeBlocks {
			us.freeBlocks[b] = geo.BlocksPerUnit - 1 - b
			us.free[b] = true
		}
	}
	return m, nil
}

// Geometry returns the managed geometry.
func (m *Mapper) Geometry() Geometry { return m.geo }

// SpareFactor reports the over-provisioning fraction.
func (m *Mapper) SpareFactor() float64 {
	return 1 - float64(m.logicalPages)/float64(m.geo.TotalPages())
}

// popFreeBlock takes the lowest-wear free block of a unit (dynamic wear
// leveling: fresh data lands on the least-cycled blocks).
func (m *Mapper) popFreeBlock(u int) int {
	us := &m.units[u]
	if len(us.freeBlocks) == 0 {
		return -1
	}
	bestIdx := 0
	for i, b := range us.freeBlocks {
		if m.pe[u][b] < m.pe[u][us.freeBlocks[bestIdx]] {
			bestIdx = i
		}
		_ = b
	}
	blk := us.freeBlocks[bestIdx]
	us.freeBlocks = append(us.freeBlocks[:bestIdx], us.freeBlocks[bestIdx+1:]...)
	us.free[blk] = false
	return blk
}

// allocate returns the next physical page of unit u, opening a new active
// block when needed. Returns InvalidPPN if the unit is out of space.
func (m *Mapper) allocate(u int) PPN {
	us := &m.units[u]
	if us.activeBlock == -1 || us.nextPage == m.geo.PagesPerBlock {
		blk := m.popFreeBlock(u)
		if blk == -1 {
			return InvalidPPN
		}
		us.activeBlock = blk
		us.nextPage = 0
	}
	p := m.geo.Compose(u, us.activeBlock, us.nextPage)
	us.nextPage++
	return p
}

// invalidate clears the physical location of a logical page if mapped.
func (m *Mapper) invalidate(lpn int64) {
	if old := m.l2p[lpn]; old != InvalidPPN {
		u, b, _ := m.geo.Decompose(old)
		m.valid[u][b]--
		m.p2l[old] = -1
		m.l2p[lpn] = InvalidPPN
	}
}

// bind records a new mapping.
func (m *Mapper) bind(lpn int64, p PPN) {
	m.l2p[lpn] = p
	m.p2l[p] = lpn
	u, b, _ := m.geo.Decompose(p)
	m.valid[u][b]++
}

// gcUnit reclaims one block in unit u using greedy victim selection,
// appending the required physical ops. A round whose greedy victim is
// fully valid gains no free page: it frees one block and uses one. If the
// active block, which then joins the candidates, holds no invalid page
// either, the next round finds the unit exactly as this one did, and so
// would every round after it; gcUnit reports the unit full instead.
func (m *Mapper) gcUnit(u int, ops []Op) ([]Op, error) {
	us := &m.units[u]
	// Greedy victim: fewest valid pages; ties broken toward the
	// least-worn block so reclamation wear spreads evenly.
	victim, best := -1, m.geo.PagesPerBlock+1
	for b := 0; b < m.geo.BlocksPerUnit; b++ {
		if b == us.activeBlock || us.free[b] {
			continue
		}
		v := m.valid[u][b]
		if v < best || (v == best && victim >= 0 && m.pe[u][b] < m.pe[u][victim]) {
			victim, best = b, v
		}
	}
	if victim == -1 {
		return ops, nil
	}
	if best == m.geo.PagesPerBlock && (us.activeBlock == -1 || m.valid[u][us.activeBlock] == us.nextPage) {
		return ops, fmt.Errorf("ftl: unit %d out of space", u)
	}
	// Relocate valid pages within the same unit.
	for pg := 0; pg < m.geo.PagesPerBlock; pg++ {
		src := m.geo.Compose(u, victim, pg)
		lpn := m.p2l[src]
		if lpn < 0 {
			continue
		}
		dst := m.allocate(u)
		if dst == InvalidPPN {
			// Should not happen with gcFreeTarget >= 2; treated as a
			// fatal inconsistency in tests.
			panic("ftl: allocation failed during GC")
		}
		m.invalidate(lpn)
		m.bind(lpn, dst)
		m.Stats.GCCopies++
		m.Stats.PhysPrograms++
		ops = append(ops, Op{Kind: OpCopy, Target: dst, Source: src})
	}
	return m.recycle(u, victim, ops), nil
}

// recycle erases block b of unit u, whose valid pages have been relocated,
// and returns it to the unit's free pool.
func (m *Mapper) recycle(u, b int, ops []Op) []Op {
	us := &m.units[u]
	m.valid[u][b] = 0
	m.pe[u][b]++
	us.freeBlocks = append(us.freeBlocks, b)
	us.free[b] = true
	m.Stats.Erases++
	return append(ops, Op{Kind: OpErase, Target: m.geo.Compose(u, b, 0)})
}

// maybeStaticWL relocates the coldest data block of unit u when the unit's
// erase-count spread exceeds WLThreshold (static wear leveling: without it,
// blocks pinned by static data never cycle and hot blocks wear out first).
func (m *Mapper) maybeStaticWL(u int, ops []Op) []Op {
	us := &m.units[u]
	coldest, coldPE := -1, int(^uint(0)>>1)
	hotPE := 0
	for b := 0; b < m.geo.BlocksPerUnit; b++ {
		if pe := m.pe[u][b]; pe > hotPE {
			hotPE = pe
		}
		if b == us.activeBlock || us.free[b] {
			continue
		}
		if pe := m.pe[u][b]; pe < coldPE {
			coldest, coldPE = b, pe
		}
	}
	if coldest == -1 || hotPE-coldPE <= m.WLThreshold {
		return ops
	}
	// Relocate the cold block's valid pages and recycle it.
	for pg := 0; pg < m.geo.PagesPerBlock; pg++ {
		src := m.geo.Compose(u, coldest, pg)
		lpn := m.p2l[src]
		if lpn < 0 {
			continue
		}
		dst := m.allocate(u)
		if dst == InvalidPPN {
			return ops // pool too tight; skip WL this round
		}
		m.invalidate(lpn)
		m.bind(lpn, dst)
		m.Stats.GCCopies++
		m.Stats.PhysPrograms++
		ops = append(ops, Op{Kind: OpCopy, Target: dst, Source: src})
	}
	return m.recycle(u, coldest, ops)
}

// Write maps a logical page write, running garbage collection first when the
// target unit's free pool is low. It returns the physical ops in execution
// order (GC copies/erases, then the user program) in a fresh slice.
func (m *Mapper) Write(lpn int64) ([]Op, error) { return m.AppendWrite(nil, lpn) }

// AppendWrite is Write appending the ops to ops, a slice the caller owns,
// so a caller that uses the ops up before its next write can reuse one
// slice for every write.
func (m *Mapper) AppendWrite(ops []Op, lpn int64) ([]Op, error) {
	if lpn < 0 || lpn >= m.logicalPages {
		return nil, fmt.Errorf("ftl: lpn %d out of range", lpn)
	}
	u := m.nextUnit
	m.nextUnit = (m.nextUnit + 1) % m.geo.Units
	ranGC := false
	for len(m.units[u].freeBlocks) < m.gcFreeTarget {
		before := len(ops)
		var err error
		if ops, err = m.gcUnit(u, ops); err != nil {
			return nil, err
		}
		if len(ops) == before {
			break // nothing reclaimable
		}
		ranGC = true
	}
	if ranGC && m.WLThreshold > 0 {
		ops = m.maybeStaticWL(u, ops)
	}
	m.invalidate(lpn)
	dst := m.allocate(u)
	if dst == InvalidPPN {
		return nil, errors.New("ftl: out of space")
	}
	m.bind(lpn, dst)
	m.Stats.UserWrites++
	m.Stats.PhysPrograms++
	ops = append(ops, Op{Kind: OpProgram, Target: dst})
	return ops, nil
}

// Read resolves a logical page; ok is false for never-written/trimmed pages.
func (m *Mapper) Read(lpn int64) (PPN, bool) {
	if lpn < 0 || lpn >= m.logicalPages {
		return InvalidPPN, false
	}
	p := m.l2p[lpn]
	if p == InvalidPPN {
		m.Stats.ReadMisses++
		return InvalidPPN, false
	}
	m.Stats.ReadHits++
	return p, true
}

// Trim unmaps a logical page (the TRIM command the paper's Table I lists
// under "Actual FTL").
func (m *Mapper) Trim(lpn int64) error {
	if lpn < 0 || lpn >= m.logicalPages {
		return fmt.Errorf("ftl: lpn %d out of range", lpn)
	}
	m.invalidate(lpn)
	m.Stats.Trims++
	return nil
}

// MeasuredWAF returns physical programs per user write so far.
func (m *Mapper) MeasuredWAF() float64 {
	if m.Stats.UserWrites == 0 {
		return 0
	}
	return float64(m.Stats.PhysPrograms) / float64(m.Stats.UserWrites)
}
