package sim

// PoolCap is the Max of every record pool whose in-flight count follows a
// queue depth: the channel controller's die ops, the platform's flash
// dispatch and command records and the host interface's commands. Steady
// traffic needs a few hundred records at most (C8's sequential write peaks
// at 192 batch completions in flight), while a deep NVMe window or the WAF
// abstraction's unthrottled GC traffic can put thousands in flight at
// once; keeping all of them would hold that peak to the end of the run.
const PoolCap = 256

// FreeList is the typed free list behind the platform's hot-path object
// pools: DMA transfers and deliveries, DRAM requests, channel-controller
// die ops, the platform's flash dispatch records (program and read
// dispatches, GC read completions, program-batch completions, ECC jobs),
// and the per-command records (the host interface's commands and the
// platform's command records) all recycle through one so steady-state
// simulation paths stay allocation-free. A pooled record binds its
// callbacks once, when it is built, and keeps them across recycling. The
// zero value is ready to use. Kernel events need no pool (they live by
// value in the event heap). A pool whose in-flight count follows a queue
// depth sets Max (die ops, the flash dispatch and command records all use
// PoolCap), because an unbounded pool keeps a run's in-flight peak alive
// to the end of the run.
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
