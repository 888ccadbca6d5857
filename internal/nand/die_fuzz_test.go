package nand

import (
	"testing"

	"repro/internal/sim"
)

// refBlock and refDie are a dense reference model of Die: every block owns
// an explicit page array, P/E count and write frontier, with no chunking and
// no shared base count. FuzzDie drives both with the same operations.
type refBlock struct {
	pages []bool
	next  int
	pe    int64
}

type refDie struct {
	geo       Geometry
	tim       Timing
	k         *sim.Kernel
	rng       *sim.RNG
	busyUntil sim.Time
	blocks    [][]refBlock // [plane][block]
}

func newRefDie(k *sim.Kernel, geo Geometry, tim Timing, rng *sim.RNG) *refDie {
	r := &refDie{geo: geo, tim: tim, k: k, rng: rng, blocks: make([][]refBlock, geo.PlanesPerDie)}
	for p := range r.blocks {
		r.blocks[p] = make([]refBlock, geo.BlocksPerPlane)
		for b := range r.blocks[p] {
			r.blocks[p][b].pages = make([]bool, geo.PagesPerBlock)
		}
	}
	return r
}

func (r *refDie) jitter(t sim.Time) sim.Time {
	if r.tim.JitterPct <= 0 {
		return t
	}
	span := float64(t) * r.tim.JitterPct
	return t + sim.Time((r.rng.Float64()*2-1)*span)
}

func (r *refDie) busy() bool { return r.k.Now() < r.busyUntil }

func (r *refDie) begin(dur sim.Time) { r.busyUntil = r.k.Now() + dur }

func (r *refDie) wear(p, b int) float64 {
	return float64(r.blocks[p][b].pe) / float64(r.tim.RatedPE)
}

func (r *refDie) read(a Addr) (sim.Time, error) {
	if a.Check(r.geo) != nil {
		return 0, ErrBadAddress
	}
	if r.busy() {
		return 0, ErrBusy
	}
	if !r.blocks[a.Plane][a.Block].pages[a.Page] {
		return 0, ErrNotProgrammed
	}
	dur := r.jitter(r.tim.TReadArray)
	r.begin(dur)
	return dur, nil
}

func (r *refDie) check(a Addr) error {
	blk := &r.blocks[a.Plane][a.Block]
	if blk.pages[a.Page] {
		return ErrNotErased
	}
	if a.Page != blk.next {
		return ErrOutOfOrder
	}
	return nil
}

func (r *refDie) program(a Addr) (sim.Time, error) {
	if a.Check(r.geo) != nil {
		return 0, ErrBadAddress
	}
	if r.busy() {
		return 0, ErrBusy
	}
	if err := r.check(a); err != nil {
		return 0, err
	}
	dur := r.jitter(r.tim.ProgTimeAt(a.Page, r.wear(a.Plane, a.Block)))
	r.blocks[a.Plane][a.Block].pages[a.Page] = true
	r.blocks[a.Plane][a.Block].next++
	r.begin(dur)
	return dur, nil
}

func (r *refDie) multiPlaneProgram(addrs []Addr) (sim.Time, error) {
	if len(addrs) == 0 {
		return 0, ErrBadAddress
	}
	if len(addrs) == 1 {
		return r.program(addrs[0])
	}
	if r.busy() {
		return 0, ErrBusy
	}
	for i, a := range addrs {
		if a.Check(r.geo) != nil {
			return 0, ErrBadAddress
		}
		for _, prev := range addrs[:i] {
			if prev.Plane == a.Plane {
				return 0, ErrPlaneMismatch
			}
		}
		if a.Block != addrs[0].Block || a.Page != addrs[0].Page {
			return 0, ErrPlaneMismatch
		}
		if err := r.check(a); err != nil {
			return 0, err
		}
	}
	var dur sim.Time
	for _, a := range addrs {
		r.blocks[a.Plane][a.Block].pages[a.Page] = true
		r.blocks[a.Plane][a.Block].next++
		dur = max(dur, r.jitter(r.tim.ProgTimeAt(a.Page, r.wear(a.Plane, a.Block))))
	}
	r.begin(dur)
	return dur, nil
}

// erase is legal on any block, erased or not, and always counts a P/E
// cycle: the FTL erases blocks it never programmed.
func (r *refDie) erase(p, b int) (sim.Time, error) {
	if p < 0 || p >= r.geo.PlanesPerDie || b < 0 || b >= r.geo.BlocksPerPlane {
		return 0, ErrBadAddress
	}
	if r.busy() {
		return 0, ErrBusy
	}
	dur := r.jitter(r.tim.EraseTimeAt(r.wear(p, b)))
	blk := &r.blocks[p][b]
	clear(blk.pages)
	blk.next = 0
	blk.pe++
	r.begin(dur)
	return dur, nil
}

func (r *refDie) preload(a Addr) error {
	if a.Check(r.geo) != nil {
		return ErrBadAddress
	}
	blk := &r.blocks[a.Plane][a.Block]
	blk.pages[a.Page] = true
	blk.next = max(blk.next, a.Page+1)
	return nil
}

func (r *refDie) setWear(w float64) {
	pe := int64(w * float64(r.tim.RatedPE))
	for p := range r.blocks {
		for b := range r.blocks[p] {
			r.blocks[p][b].pe = pe
		}
	}
}

func (r *refDie) avgWear() float64 {
	var total, n int64
	for p := range r.blocks {
		for b := range r.blocks[p] {
			total += r.blocks[p][b].pe
			n++
		}
	}
	return float64(total) / float64(n) / float64(r.tim.RatedPE)
}

// fuzzGeometry spans eight full 4-block chunks and a partial ninth per
// plane, so that a plane's sorted chunk list grows deep enough for
// insertions before, between and after listed chunks; its pages spill into
// a second bitmap word.
func fuzzGeometry() Geometry {
	return Geometry{PlanesPerDie: 2, BlocksPerPlane: 35, PagesPerBlock: 70, PageBytes: 4096}
}

// Die operations as FuzzDie decodes them: every operation is four bytes
// (op, plane, block, page). The op byte's low three bits pick the kind;
// bit 7 leaves the die busy from the previous operation instead of running
// the kernel first.
const (
	fzProgram = iota
	fzMultiPlane
	fzRead
	fzErase
	fzPreload
	fzSetWear
	fzRun
	fzKinds
	fzNoRun = 0x80
)

// Page byte: bit 7 selects the block's current write frontier.
const fzFrontier = 0x80

func FuzzDie(f *testing.F) {
	geo := fuzzGeometry()
	last := byte(geo.BlocksPerPlane - 1)
	cb := byte(chunkBlocks)
	nc := byte((geo.BlocksPerPlane + chunkBlocks - 1) / chunkBlocks)
	if nc < 8 {
		f.Fatalf("fuzz geometry holds %d chunks per plane, want at least 8", nc)
	}
	seq := func(ops ...[4]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	// Chunk-boundary blocks: program, read and erase either side of each
	// boundary.
	var boundary [][4]byte
	for _, b := range []byte{cb - 1, cb, 2*cb - 1, 2 * cb} {
		boundary = append(boundary,
			[4]byte{fzProgram, 0, b, fzFrontier}, [4]byte{fzProgram, 0, b, fzFrontier},
			[4]byte{fzRead, 0, b, 1}, [4]byte{fzRead, 0, b + 1, 0},
			[4]byte{fzErase, 0, b, 0}, [4]byte{fzRead, 0, b, 0})
	}
	f.Add(seq(boundary...))
	// The last block, and addresses just outside the geometry.
	f.Add(seq(
		[4]byte{fzProgram, 1, last, fzFrontier}, [4]byte{fzPreload, 1, last, 69},
		[4]byte{fzRead, 1, last, 69}, [4]byte{fzProgram, 1, last, fzFrontier},
		[4]byte{fzErase, 1, last, 0}, [4]byte{fzProgram, 1, 0xFE, 0},
		[4]byte{fzErase, 1, 0xFE, 0}, [4]byte{fzPreload, 0xFF, last, 0}))
	// Erase of never-touched blocks, twice, then program them.
	f.Add(seq(
		[4]byte{fzErase, 1, 7, 0}, [4]byte{fzErase, 1, 7, 0},
		[4]byte{fzErase, 0, 2*cb + 1, 0}, [4]byte{fzProgram, 1, 7, fzFrontier},
		[4]byte{fzRead, 1, 7, 0}))
	// SetWear after touched erases must reset the touched blocks too.
	f.Add(seq(
		[4]byte{fzErase, 0, 3, 0}, [4]byte{fzErase, 0, 3, 0},
		[4]byte{fzProgram, 0, 3, fzFrontier}, [4]byte{fzSetWear, 0, 32, 0},
		[4]byte{fzErase, 0, 3, 0}, [4]byte{fzSetWear, 0, 0, 0},
		[4]byte{fzErase, 1, cb, 0}, [4]byte{fzSetWear, 0, 64, 0}))
	// Multi-plane programs, busy rejections and a preload in the second
	// bitmap word.
	f.Add(seq(
		[4]byte{fzMultiPlane | 1<<3, 0, 5, fzFrontier}, [4]byte{fzMultiPlane | 1<<3, 0, 5, fzFrontier},
		[4]byte{fzRead | fzNoRun, 1, 5, 0}, [4]byte{fzMultiPlane | 2<<3, 1, 6, 0},
		[4]byte{fzMultiPlane | 1<<3 | 1<<6, 0, 5, fzFrontier}, [4]byte{fzPreload, 0, 9, 64},
		[4]byte{fzProgram, 0, 9, fzFrontier}, [4]byte{fzRead | fzNoRun, 0, 9, 64},
		[4]byte{fzRun, 0, 0, 0}, [4]byte{fzRead, 0, 9, 63}))
	// Chunks touched in descending order, so that each insertion goes to
	// the front of the plane's list, then read and erased again.
	var desc [][4]byte
	for c := nc; c > 0; c-- {
		b := (c-1)*cb + (c-1)%cb
		desc = append(desc,
			[4]byte{fzProgram, 0, b, fzFrontier}, [4]byte{fzErase, 1, b, 0},
			[4]byte{fzRead, 0, b, 0})
	}
	for c := byte(0); c < nc; c++ {
		desc = append(desc, [4]byte{fzRead, 0, c * cb, 0}, [4]byte{fzErase, 0, c*cb + c%cb, 0})
	}
	f.Add(seq(desc...))
	// Chunks touched from both ends toward the middle, so that insertions
	// land between listed chunks.
	var inter [][4]byte
	for lo, hi := byte(0), nc-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for _, c := range []byte{lo, hi} {
			inter = append(inter,
				[4]byte{fzPreload, c % 2, c*cb + 1, 3}, [4]byte{fzProgram, c % 2, c*cb + 1, fzFrontier},
				[4]byte{fzMultiPlane | 1<<3, 0, c * cb, fzFrontier})
		}
	}
	for c := byte(0); c < nc; c++ {
		inter = append(inter, [4]byte{fzRead, c % 2, c*cb + 1, 4}, [4]byte{fzRead, 1, c * cb, 0})
	}
	f.Add(seq(inter...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*512 {
			return
		}
		k := sim.NewKernel()
		tim := ProfileExplore()
		d, err := NewDie(k, 0, &geo, &tim, sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDie(k, geo, tim, sim.NewRNG(3))

		// index maps a byte onto [0, n), with the top bytes reserved for
		// the two nearest out-of-range values.
		index := func(x byte, n int) int {
			switch x {
			case 0xFF:
				return -1
			case 0xFE:
				return n
			}
			return int(x) % n
		}
		compareBlock := func(step, p, b int) {
			if p < 0 || p >= geo.PlanesPerDie || b < 0 || b >= geo.BlocksPerPlane {
				return
			}
			if got, want := d.BlockPE(p, b), ref.blocks[p][b].pe; got != want {
				t.Fatalf("step %d: BlockPE(%d, %d) = %d, reference %d", step, p, b, got, want)
			}
			if got, want := d.RBERAt(p, b), tim.RBER(ref.wear(p, b)); got != want {
				t.Fatalf("step %d: RBERAt(%d, %d) = %v, reference %v", step, p, b, got, want)
			}
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				got, err := d.PageProgrammed(Addr{p, b, pg})
				if err != nil || got != ref.blocks[p][b].pages[pg] {
					t.Fatalf("step %d: PageProgrammed(%d, %d, %d) = %v, %v; reference %v",
						step, p, b, pg, got, err, ref.blocks[p][b].pages[pg])
				}
			}
		}

		for step := 0; step+4 <= len(ops); step += 4 {
			op, p, b := ops[step], index(ops[step+1], geo.PlanesPerDie), index(ops[step+2], geo.BlocksPerPlane)
			pg := int(ops[step+3]) % (geo.PagesPerBlock + 1)
			if ops[step+3]&fzFrontier != 0 && p >= 0 && p < geo.PlanesPerDie && b >= 0 && b < geo.BlocksPerPlane {
				pg = ref.blocks[p][b].next
			}
			if op&fzNoRun == 0 {
				k.RunAll()
			}
			a := Addr{p, b, pg}
			var got, want sim.Time
			var gotErr, wantErr error
			switch int(op&7) % fzKinds {
			case fzProgram:
				got, gotErr = d.Program(a, nil)
				want, wantErr = ref.program(a)
			case fzMultiPlane:
				n := 1 + int(op>>3)%3
				addrs := make([]Addr, n)
				for i := range addrs {
					addrs[i] = a
					addrs[i].Plane = (p + i) % geo.PlanesPerDie
				}
				if op&(1<<6) != 0 {
					addrs[n-1].Block++
				}
				got, gotErr = d.MultiPlaneProgram(addrs, nil)
				want, wantErr = ref.multiPlaneProgram(addrs)
				for _, x := range addrs {
					compareBlock(step, x.Plane, x.Block)
				}
			case fzRead:
				got, gotErr = d.Read(a, nil)
				want, wantErr = ref.read(a)
			case fzErase:
				got, gotErr = d.EraseBlock(p, b, nil)
				want, wantErr = ref.erase(p, b)
			case fzPreload:
				gotErr, wantErr = d.Preload(a), ref.preload(a)
			case fzSetWear:
				w := float64(ops[step+2]) / 64
				d.SetWear(w)
				ref.setWear(w)
			case fzRun:
				k.RunAll()
			}
			if gotErr != wantErr || got != want {
				t.Fatalf("step %d (op %#x at %+v): die returned %v, %v; reference %v, %v",
					step, op, a, got, gotErr, want, wantErr)
			}
			if d.busyUntil != ref.busyUntil {
				t.Fatalf("step %d: die ready at %v, reference %v", step, d.busyUntil, ref.busyUntil)
			}
			if got, want := d.AvgWear(), ref.avgWear(); got != want {
				t.Fatalf("step %d: AvgWear %v, reference %v", step, got, want)
			}
			compareBlock(step, p, b)
		}
		for p := 0; p < geo.PlanesPerDie; p++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				compareBlock(len(ops), p, b)
			}
		}
	})
}
