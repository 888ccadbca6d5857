package sim

// FreeList is the typed free list behind the platform's hot-path object
// pools: DMA transfers and deliveries, DRAM requests and channel-controller
// die ops all recycle through one so steady-state simulation paths stay
// allocation-free. The zero value is ready to use. Kernel events need no
// pool (they live by value in the event heap), and per-command records are
// deliberately not pooled: a pool keeps a run's in-flight peak alive to the
// end of the run.
type FreeList[T any] struct{ items []*T }

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
func (f *FreeList[T]) Give(v *T) { f.items = append(f.items, v) }
