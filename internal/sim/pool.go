package sim

// FreeList is the typed free list behind the platform's hot-path object
// pools: DMA transfers and deliveries, DRAM requests, channel-controller
// die ops, and the platform's flash dispatch records (program and read
// dispatches, program-batch completions, ECC jobs) all recycle through one
// so steady-state simulation paths stay allocation-free. A pooled record
// binds its callbacks once, when it is built, and keeps them across
// recycling. The zero value is ready to use. Kernel events need no pool
// (they live by value in the event heap), and per-command records are
// deliberately not pooled: a pool keeps a run's in-flight peak alive to the
// end of the run.
type FreeList[T any] struct {
	items []*T

	// Max, when positive, bounds how many objects the list keeps: Give
	// drops the rest for the garbage collector. A pool whose in-flight
	// count can burst far above its steady state sets it, so a burst's
	// peak does not stay alive to the end of the run.
	Max int
}

// Take pops a recycled object, or returns nil when the list is empty — the
// caller constructs (and binds any reusable callbacks of) a fresh one.
//
//ssdx:hotpath
func (f *FreeList[T]) Take() *T {
	n := len(f.items)
	if n == 0 {
		return nil
	}
	v := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return v
}

// Give returns an object to the list. The caller clears any state that must
// not survive recycling before handing it back.
//
//ssdx:hotpath
func (f *FreeList[T]) Give(v *T) {
	if f.Max > 0 && len(f.items) >= f.Max {
		return
	}
	f.items = append(f.items, v)
}
