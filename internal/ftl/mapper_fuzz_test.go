package ftl

import "testing"

// FuzzMapper drives a small Mapper with a random sequence of writes, trims
// and reads and checks it against a reference map of which logical pages
// hold data. After every operation the mapping must be a bijection between
// mapped logical pages and valid physical pages, each block's valid count
// must match the pages mapped into it, and free blocks must hold none. A
// write returns either its ops, bounded by one unit's pages and blocks and
// ending in the program of the written page, or an error beside the GC ops
// it applied before failing, and the written page keeps its mapping; a
// trim unmaps exactly its page. Every returned op is applied to a model of
// flash, which programs only erased pages and must hold each mapped page's
// data where the map points.
//
// The first five bytes pick the geometry, the logical size and the static
// wear-leveling threshold; every later pair of bytes is one operation.
func FuzzMapper(f *testing.F) {
	f.Add([]byte{0, 0, 3, 255, 1, 0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 3, 1})
	f.Add([]byte{1, 3, 7, 200, 0, 1, 5, 1, 5, 1, 5, 2, 5, 1, 5, 3, 5, 0, 9, 0, 9, 0, 9})
	f.Add([]byte{2, 5, 2, 90, 2, 0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 2, 2, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		geo := Geometry{
			Units:         1 + int(data[0]%3),
			BlocksPerUnit: 3 + int(data[1]%6),
			PagesPerBlock: 1 + int(data[2]%8),
		}
		maxLogical := geo.TotalPages() - int64(2*geo.Units*geo.PagesPerBlock)
		logical := 1 + int64(data[3])%maxLogical
		m, err := NewMapper(geo, logical)
		if err != nil {
			t.Fatalf("%+v with %d logical pages: %v", geo, logical, err)
		}
		m.WLThreshold = int(data[4] % 4)
		ref := make([]bool, logical) // ref[lpn]: the page holds data
		flash := newFlashModel(geo)
		checkMapper(t, m, ref)
		ops := data[5:]
		for i := 0; i+1 < len(ops); i += 2 {
			lpn := int64(ops[i+1]) % logical
			switch ops[i] % 4 {
			case 0, 1:
				old := m.l2p[lpn]
				out, err := m.Write(lpn)
				flash.apply(t, out, lpn)
				if err != nil {
					// The unit is full. The platform fails the run here, but
					// the mapper must stay consistent for the next write.
					for _, op := range out {
						if op.Kind == OpProgram {
							t.Fatalf("op %d: write of lpn %d failed (%v) but programmed %+v", i/2, lpn, err, op)
						}
					}
					if m.l2p[lpn] != old {
						t.Fatalf("op %d: failed write of lpn %d moved it from %d to %d", i/2, lpn, old, m.l2p[lpn])
					}
				} else {
					checkWriteOps(t, m, lpn, out)
					ref[lpn] = true
				}
			case 2:
				before := append([]PPN(nil), m.l2p...)
				if err := m.Trim(lpn); err != nil {
					t.Fatalf("op %d: trim of lpn %d: %v", i/2, lpn, err)
				}
				for l, p := range m.l2p {
					if int64(l) != lpn && p != before[l] {
						t.Fatalf("op %d: trim of lpn %d moved lpn %d from %d to %d", i/2, lpn, l, before[l], p)
					}
				}
				if m.l2p[lpn] != InvalidPPN {
					t.Fatalf("op %d: lpn %d still mapped after its trim", i/2, lpn)
				}
				ref[lpn] = false
			case 3:
				p, ok := m.Read(lpn)
				if ok != ref[lpn] || ok && p != m.l2p[lpn] {
					t.Fatalf("op %d: read of lpn %d = (%d, %v), reference holds data: %v", i/2, lpn, p, ok, ref[lpn])
				}
			}
			checkMapper(t, m, ref)
			flash.check(t, m)
		}
	})
}

// flashModel is what flash holds after the ops a Mapper returned: the
// logical page whose data each physical page holds, -1 for erased.
type flashModel struct {
	geo  Geometry
	data []int64
}

func newFlashModel(geo Geometry) *flashModel {
	f := &flashModel{geo: geo, data: make([]int64, geo.TotalPages())}
	for i := range f.data {
		f.data[i] = -1
	}
	return f
}

// apply runs the ops of a write of lpn. Programs and copies must target
// erased pages, and a copy's source must hold data.
func (f *flashModel) apply(t *testing.T, ops []Op, lpn int64) {
	t.Helper()
	for _, op := range ops {
		switch op.Kind {
		case OpErase:
			for p := op.Target; p < op.Target+PPN(f.geo.PagesPerBlock); p++ {
				f.data[p] = -1
			}
			continue
		case OpCopy:
			if f.data[op.Source] < 0 {
				t.Fatalf("copy %+v reads an erased page", op)
			}
		}
		if f.data[op.Target] >= 0 {
			t.Fatalf("op %+v programs a page holding lpn %d", op, f.data[op.Target])
		}
		if op.Kind == OpCopy {
			f.data[op.Target] = f.data[op.Source]
		} else {
			f.data[op.Target] = lpn
		}
	}
}

// check fails unless every mapped logical page's data is where the map
// points.
func (f *flashModel) check(t *testing.T, m *Mapper) {
	t.Helper()
	for lpn, p := range m.l2p {
		if p != InvalidPPN && f.data[p] != int64(lpn) {
			t.Fatalf("lpn %d maps to %d, which holds lpn %d on flash", lpn, p, f.data[p])
		}
	}
}

// checkWriteOps checks one successful write's ops: at most one unit's worth
// of page programs (copies and the user program) and one erase per block of
// a unit, targets inside the geometry, erases at a block's first page, and
// the last op the program the written page now maps to. Erases do not count
// against the pages: with one page per block, a write can relocate a page,
// erase two blocks and program, four ops in a three-page unit.
func checkWriteOps(t *testing.T, m *Mapper, lpn int64, ops []Op) {
	t.Helper()
	geo := m.geo
	if len(ops) == 0 {
		t.Fatalf("write of lpn %d returned no ops", lpn)
	}
	programs, erases := 0, 0
	for _, op := range ops {
		if op.Kind == OpErase {
			erases++
		} else {
			programs++
		}
	}
	if programs > geo.BlocksPerUnit*geo.PagesPerBlock || erases > geo.BlocksPerUnit {
		t.Fatalf("write of lpn %d: %d programs and %d erases in a unit of %d blocks of %d pages",
			lpn, programs, erases, geo.BlocksPerUnit, geo.PagesPerBlock)
	}
	for _, op := range ops {
		if op.Target < 0 || int64(op.Target) >= geo.TotalPages() {
			t.Fatalf("write of lpn %d: op %+v targets outside the geometry", lpn, op)
		}
		if _, _, pg := geo.Decompose(op.Target); op.Kind == OpErase && pg != 0 {
			t.Fatalf("write of lpn %d: erase %+v is not at a block's first page", lpn, op)
		}
	}
	if last := ops[len(ops)-1]; last.Kind != OpProgram || last.Target != m.l2p[lpn] {
		t.Fatalf("write of lpn %d: last op %+v, want the program of %d", lpn, last, m.l2p[lpn])
	}
}

// checkMapper checks the mapping against the reference and itself.
func checkMapper(t *testing.T, m *Mapper, ref []bool) {
	t.Helper()
	geo := m.geo
	for lpn, p := range m.l2p {
		if (p != InvalidPPN) != ref[lpn] {
			t.Fatalf("lpn %d maps to %d, reference holds data: %v", lpn, p, ref[lpn])
		}
		if p != InvalidPPN && m.p2l[p] != int64(lpn) {
			t.Fatalf("lpn %d maps to %d, which maps back to %d", lpn, p, m.p2l[p])
		}
	}
	valid := make([][]int, geo.Units)
	for u := range valid {
		valid[u] = make([]int, geo.BlocksPerUnit)
	}
	for p, lpn := range m.p2l {
		if lpn < 0 {
			continue
		}
		if m.l2p[lpn] != PPN(p) {
			t.Fatalf("ppn %d holds lpn %d, which maps to %d", p, lpn, m.l2p[lpn])
		}
		u, b, _ := geo.Decompose(PPN(p))
		valid[u][b]++
	}
	for u := range valid {
		for b, n := range valid[u] {
			if m.valid[u][b] != n {
				t.Fatalf("unit %d block %d counts %d valid pages, holds %d", u, b, m.valid[u][b], n)
			}
			if m.units[u].free[b] && n != 0 {
				t.Fatalf("free block %d of unit %d holds %d valid pages", b, u, n)
			}
		}
	}
}
