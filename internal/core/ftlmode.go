package core

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file implements the platform's "actual FTL" execution mode (paper
// §III-F: "SSDExplorer enables both an actual FTL implementation and its
// abstraction through a WAF model"). With `ftl_mode = mapper`, every host
// write runs the real page-mapped FTL (internal/ftl.Mapper: greedy GC,
// static+dynamic wear leveling, TRIM) and the physical operations it emits —
// GC copies, erases, the user program — execute on the simulated channels,
// buses and ECC engines in allocation order. Reads resolve through the real
// L2P map. Write amplification is then *measured*, not modelled.

// mapperFTL glues the synchronous FTL decision engine to the event-driven
// platform.
type mapperFTL struct {
	m       *ftl.Mapper
	g       ftl.Geometry
	planes  int
	logical int64
	ops     []ftl.Op // mapperWrite's op list, reused by every write
}

// buildMapperFTL builds the real FTL at the size config.MapperGeometry
// gives the platform.
func (p *Platform) buildMapperFTL() error {
	g, logical := p.Cfg.MapperGeometry()
	m, err := ftl.NewMapper(g, logical)
	if err != nil {
		return fmt.Errorf("core: mapper FTL: %w", err)
	}
	p.mapper = &mapperFTL{m: m, g: g, planes: p.geo.PlanesPerDie, logical: logical}
	return nil
}

// place converts a mapper PPN into platform coordinates. Units are laid out
// die-major (unit u -> die u mod dies, plane u div dies) so the mapper's
// round-robin allocation stripes consecutive writes across every die before
// revisiting one.
func (f *mapperFTL) place(pp ftl.PPN) (gdie int, a nand.Addr) {
	unit, block, page := f.g.Decompose(pp)
	dies := f.g.Units / f.planes
	gdie = unit % dies
	a = nand.Addr{Plane: unit / dies, Block: block, Page: page}
	return gdie, a
}

// lpnOf maps page pageOffset of a request at lba to a logical page,
// wrapping at the exposed space.
func (f *mapperFTL) lpnOf(lba int64, pageBytes, pageOffset int) int64 {
	lpn := lba*trace.SectorSize/int64(pageBytes)%f.logical + int64(pageOffset)
	if lpn >= f.logical {
		lpn -= f.logical
	}
	return lpn
}

// mapperWrite runs the real FTL for one user page and executes the emitted
// physical operations in order: erases, GC relocations (programs whose prep
// stage reads the source page) and the user program. sp, when non-nil, is
// the host command's span, threaded through the user program's batch so
// FTL-mode writes get the same stage split as the WAF abstraction's. done
// fires when the user program completes. The ops are used up before the
// call returns, so every write reuses one op list.
func (p *Platform) mapperWrite(lba int64, pageOffset int, sp *telemetry.Span, done func()) {
	f := p.mapper
	ops, err := f.m.AppendWrite(f.ops[:0], f.lpnOf(lba, p.pageBytes, pageOffset))
	if err != nil {
		panic(fmt.Sprintf("core: mapper write failed: %v", err))
	}
	f.ops = ops
	p.stats.userPages++
	for _, op := range ops {
		gdie, a := f.place(op.Target)
		switch op.Kind {
		case ftl.OpErase:
			p.erase(gdie, a)
		case ftl.OpCopy:
			// The whole single-page batch is a relocation: its busy time
			// lands in the gc_read/gc_program op kinds of the timeline.
			p.stats.gcCopies++
			srcDie, srcAddr := f.place(op.Source)
			addrs := [1]nand.Addr{a}
			p.program(gdie, addrs[:], nil, 1, &flashPage{srcDie, srcAddr}, nil)
		case ftl.OpProgram:
			addrs, spans := [1]nand.Addr{a}, [1]*telemetry.Span{sp} // a nil span is skipped
			p.program(gdie, addrs[:], spans[:], 0, nil, done)
		}
	}
}

// mapperRead resolves a logical page through the real map; ok=false means
// the page was never written (the caller answers it as a zero-fill read
// without touching flash).
func (p *Platform) mapperRead(lba int64, pageOffset int) (gdie int, a nand.Addr, ok bool) {
	f := p.mapper
	pp, ok := f.m.Read(f.lpnOf(lba, p.pageBytes, pageOffset))
	if !ok {
		return 0, nand.Addr{}, false
	}
	gdie, a = f.place(pp)
	return gdie, a, true
}

// mapperTrim unmaps the pages of a trim command. A page the mapper refuses
// is a fault, as in mapperWrite: the unmap must not be skipped silently.
func (p *Platform) mapperTrim(req trace.Request) {
	f := p.mapper
	for i := 0; i < p.pagesOf(req.Bytes); i++ {
		if err := f.m.Trim(f.lpnOf(req.LBA, p.pageBytes, i)); err != nil {
			panic(fmt.Sprintf("core: mapper trim failed: %v", err))
		}
	}
}
