package ctrl

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// TestPrepStageDelaysProgram: a write's prep (e.g. ECC encode) must gate the
// program without blocking other dies.
func TestPrepStageDelaysProgram(t *testing.T) {
	r := newRig(t, Config{Ways: 2, DiesPerWay: 1}, nand.ProfileExplore())
	var prepDone, otherDone sim.Time
	prep := func(ready func()) {
		r.k.Schedule(5*sim.Millisecond, func() {
			prepDone = r.k.Now()
			ready()
		})
	}
	var die0End sim.Time
	if err := r.ch.Program(0, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, prep, func() {
		die0End = r.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// Die 1 write with no prep proceeds immediately.
	if err := r.ch.Program(1, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() {
		otherDone = r.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if die0End <= prepDone {
		t.Fatalf("program finished before prep: %v vs %v", die0End, prepDone)
	}
	if otherDone >= 5*sim.Millisecond {
		t.Fatalf("independent die stalled by another die's prep: %v", otherDone)
	}
}

// TestPrepMayEnqueueSameDieRead reproduces the GC-copy dependency: the prep
// stage reads a source page on the same die the program targets. The read
// must execute first (it was enqueued by prep before the program).
func TestPrepMayEnqueueSameDieRead(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	src := nand.Addr{Plane: 0, Block: 0, Page: 0}
	done := make(map[string]sim.Time)
	r.ch.Program(0, []nand.Addr{src}, 4096, nil, 0, nil, func() {
		// GC-style relocation: prep reads src, then the program lands on a
		// different block of the same die.
		prep := func(ready func()) {
			if err := r.ch.Read(0, src, 4096, nil, false, func() { ready() }); err != nil {
				t.Errorf("prep read: %v", err)
			}
		}
		dst := nand.Addr{Plane: 0, Block: 1, Page: 0}
		if err := r.ch.Program(0, []nand.Addr{dst}, 4096, nil, 0, prep, func() {
			done["copy"] = r.k.Now()
		}); err != nil {
			t.Error(err)
		}
	})
	r.k.RunAll()
	if _, ok := done["copy"]; !ok {
		t.Fatal("same-die GC copy deadlocked")
	}
	if r.ch.Stats.PageReads != 1 || r.ch.Stats.PageWrites != 2 {
		t.Fatalf("stats %+v", r.ch.Stats)
	}
}

// TestMixedOpFIFOPerDie: write, erase, write to one die execute in command
// order even though their readiness conditions differ.
func TestMixedOpFIFOPerDie(t *testing.T) {
	r := newRig(t, Config{Ways: 1, DiesPerWay: 1}, nand.ProfileExplore())
	var order []string
	r.ch.Program(0, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { order = append(order, "w1") })
	r.ch.Erase(0, 0, 0, func() { order = append(order, "e") })
	r.ch.Program(0, []nand.Addr{{Block: 0, Page: 0}}, 4096, nil, 0, nil, func() { order = append(order, "w2") })
	r.ch.Read(0, nand.Addr{Block: 0, Page: 0}, 4096, nil, false, func() { order = append(order, "r") })
	r.k.RunAll()
	want := []string{"w1", "e", "w2", "r"}
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("command order %v, want %v", order, want)
		}
	}
}

// TestReadsOverlapAcrossDies: array sense on one die overlaps another die's
// data-out on a shared bus (the interleaving the controller exists for).
func TestReadsOverlapAcrossDies(t *testing.T) {
	tim := nand.ProfileExplore()
	tim.JitterPct = 0
	r := newRig(t, Config{Ways: 2, DiesPerWay: 1}, tim)
	// Preload both dies.
	for d := 0; d < 2; d++ {
		if err := r.ch.Die(d).Preload(nand.Addr{Block: 0, Page: 0}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for d := 0; d < 2; d++ {
		r.ch.Read(d, nand.Addr{Block: 0, Page: 0}, 4096, nil, false, func() { n++ })
	}
	r.k.RunAll()
	if n != 2 {
		t.Fatalf("reads completed %d", n)
	}
	// Serial would be 2*(60us sense + 164us data-out) = ~450us; overlap of
	// sense keeps it clearly below.
	if r.k.Now() > 420*sim.Microsecond {
		t.Fatalf("no sense/data-out overlap: %v", r.k.Now())
	}
}
