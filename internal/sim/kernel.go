// Package sim provides the discrete-event simulation kernel used by every
// SSDExplorer model. It substitutes for the SystemC kernel the paper builds
// on: picosecond-resolution simulated time, a deterministic ordered event
// queue, clock domains for cycle-edge alignment, and simple server/queue
// primitives for modeling shared hardware resources.
//
// Events live by value in a binary heap on (at, seq), and events due at
// the current time skip the heap for a FIFO lane; each event's one pointer
// is its callback. Scheduled work cannot be cancelled; models that
// need to wait on a resource queue a record behind a pre-bound callback
// instead of allocating a closure per step.
//
// Run fires a due heap event in place: the event stays at the heap's root
// while its callback runs, the callback's first heap push replaces it and
// sifts down, and the root is popped only if the callback pushed nothing.
// The heap's (at, seq) order is total, so the pop sequence is the one a
// pop-then-push kernel would produce, at one sift instead of two.
//
// An event whose only work is to queue its successor need not fire at all.
// A kernel holds at most one chain: a run of pure ticks at fixed intervals,
// each standing for such an event, then one real event. A tick fires in the
// (at, seq) order the event it stands for would have had, counts in
// Executed and takes the seq that event would have handed to its successor,
// so a chain is exact; CutChain turns the pending tick back into a real
// event when the model needs the successor after all. The AHB bus serves an
// uncontended multi-chunk transfer as one chain.
package sim

import (
	"fmt"
	"math"

	"repro/internal/telemetry/metrics"
)

// Time is a simulation timestamp in picoseconds. int64 picoseconds cover
// about 106 days of simulated time, far beyond any SSD benchmark run.
type Time int64

// Duration helpers. All models express delays through these so the unit
// convention is kept in one place.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Nanoseconds returns t expressed in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromMicroseconds converts a float microsecond quantity to Time.
func FromMicroseconds(us float64) Time { return Time(us * float64(Microsecond)) }

// event is one heap entry: a callback and its (at, seq) key. seq provides
// deterministic FIFO ordering among events scheduled for the same
// timestamp. Events live by value in the heap, so scheduling allocates
// nothing once the heap's backing array has grown to the peak pending
// count.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether event a fires before event b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap of events by value, ordered by (at, seq).
// (at, seq) is a total order, so the pop order does not depend on the
// heap's shape.
type eventHeap []event

// push adds e at the bottom and sifts it up.
//
//ssdx:hotpath
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes the least event, refilling the root from the bottom and
// sifting it down. The heap must not be empty.
//
//ssdx:hotpath
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback so it can be collected
	q = q[:n]
	if n > 0 {
		q.siftDown(last)
	}
	*h = q
}

// siftDown puts e at the root, whose old entry is discarded, and sifts it
// down to restore the heap order. The heap must not be empty.
//
//ssdx:hotpath
func (h eventHeap) siftDown(e event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Kernel is the discrete-event simulation engine. It is not safe for
// concurrent use; all models run on the single simulation goroutine, which is
// what makes the platform deterministic (the paper's SystemC kernel has the
// same property for a fixed process ordering).
//
// Pending events sit in two queues and the chain. Events for a later time go
// to the heap. Events for the current time (a zero or negative delay, or an
// absolute time already reached) go to the same-time lane, a plain FIFO:
// they need no sift, and they are about a third of all scheduling. The lane
// is exact. A heap event or chain tick at the current time was scheduled
// before time reached it, so its seq is lower than that of any lane event,
// which was scheduled at the current time; Run therefore fires heap events
// and chain items at now, merged by seq, then the lane, and only then
// advances time.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventHeap
	lane  FIFO[func()] // events at now, in scheduling order
	chain chain

	// firing is set while the callback of the heap's root runs; the first
	// heap push replaces the root instead of growing the heap.
	firing bool

	// Executed counts delivered events, chain ticks included; used by the
	// simulation-speed experiment (Fig. 6) and by sanity limits in tests.
	Executed uint64

	// Events, when non-nil, mirrors Executed into a live metrics counter so
	// a status endpoint can watch event throughput mid-run. Flushes are
	// batched (the serial platform calls Run once for a whole simulation, so
	// an exit-only flush would never move during the run) and the kernel
	// stays single-goroutine: only the counter itself is shared.
	Events *metrics.Counter

	// flushedEvents is the Executed value already published to Events.
	flushedEvents uint64
}

// chain is the kernel's one pending chain: left pure ticks, the first at
// (at, seq) and the rest period apart, then the final event at end that
// runs fn. Once the ticks are done, (at, seq) is the final event's key.
type chain struct {
	at     Time
	seq    uint64
	left   int // pure ticks still to fire
	passed int // pure ticks fired
	period Time
	end    Time
	fn     func() // nil when no chain is pending
}

// eventFlushBatch is how many executed events accumulate between live
// counter flushes. Large enough that the per-event cost is one predictable
// compare, small enough that a scrape sees fresh numbers.
const eventFlushBatch = 8192

// flushEvents publishes the not-yet-published executed-event delta.
//
//ssdx:hotpath
func (k *Kernel) flushEvents() {
	if k.Events != nil && k.Executed != k.flushedEvents {
		k.Events.Add(k.Executed - k.flushedEvents)
		k.flushedEvents = k.Executed
	}
}

// NewKernel returns a kernel positioned at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Schedule runs fn after delay. A negative delay is treated as zero (the
// event still runs after the current callback returns, preserving run-to-
// completion semantics).
//
//ssdx:hotpath
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.At(k.now+max(delay, 0), fn)
}

// At runs fn at absolute time t (clamped to now).
//
//ssdx:hotpath
func (k *Kernel) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t <= k.now {
		k.lane.Push(fn)
		return
	}
	k.push(event{at: t, seq: k.seq, fn: fn})
	k.seq++
}

// push adds e to the heap, in the place of the root whose callback is
// running if it is the callback's first push.
//
//ssdx:hotpath
func (k *Kernel) push(e event) {
	if k.firing {
		k.firing = false
		k.queue.siftDown(e)
		return
	}
	k.queue.push(e)
}

// StartChain queues a chain: ticks (at least one) pure ticks at first,
// first+period, …, then fn at end. first must be later than now and end
// later than the last tick, so every item of a chain is later than the one
// that queued it, as a heap event is later than its scheduler. The first
// tick takes the seq an At(first, …) in its place would have, and each
// tick takes the next seq for its successor. It returns false, and queues
// nothing, when the kernel already holds a chain.
//
//ssdx:hotpath
func (k *Kernel) StartChain(first, period Time, ticks int, end Time, fn func()) bool {
	if k.chain.fn != nil {
		return false
	}
	if fn == nil || first <= k.now || ticks < 1 || period <= 0 ||
		end <= first+Time(ticks-1)*period {
		panic("sim: invalid chain")
	}
	k.chain = chain{at: first, seq: k.seq, left: ticks, period: period, end: end, fn: fn}
	k.seq++
	return true
}

// CutChain ends the pending chain early and returns how many of its ticks
// have fired. The pending tick becomes a real event running tick, under the
// tick's own (at, seq); if every tick has fired, the final event is queued
// as it is. Either way the chain's later ticks never happen: the caller
// takes over what they stood for.
//
//ssdx:hotpath
func (k *Kernel) CutChain(tick func()) int {
	c := k.chain
	if c.fn == nil {
		panic("sim: no chain to cut")
	}
	k.chain = chain{}
	fn := c.fn
	if c.left > 0 {
		fn = tick
	}
	k.push(event{at: c.at, seq: c.seq, fn: fn})
	return c.passed
}

// fireChain fires the chain's pending item at now: a pure tick advances the
// chain, the final event clears it and runs its callback.
//
//ssdx:hotpath
func (k *Kernel) fireChain() {
	c := &k.chain
	if c.left == 0 {
		fn := c.fn
		*c = chain{}
		fn()
		return
	}
	c.left--
	c.passed++
	c.seq = k.seq
	k.seq++
	if c.left > 0 {
		c.at += c.period
	} else {
		c.at = c.end
	}
}

// NextAt returns the timestamp of the earliest pending event or chain item,
// or MaxTime when nothing is pending. The domain coordinator uses it to
// compute the global lower bound a conservative window starts from. Called
// from a callback, it reports now: the firing event still holds the root.
func (k *Kernel) NextAt() Time {
	if k.lane.Len() > 0 {
		return k.now
	}
	t := MaxTime
	if len(k.queue) > 0 {
		t = k.queue[0].at
	}
	if k.chain.fn != nil && k.chain.at < t {
		t = k.chain.at
	}
	return t
}

// Run executes events until nothing is pending or until an event beyond
// `until` would fire. It returns the simulation time at exit. Events
// scheduled exactly at `until` are executed. Time never runs backwards:
// with until before Now, Run fires nothing and returns Now.
//
// Each step fires the earlier by (at, seq) of the heap's root and the
// chain's pending item if it is due now (it was scheduled before any lane
// event), else the lane's head, and only when none is due now does it
// advance time to the earliest of the two.
//
//ssdx:hotpath
func (k *Kernel) Run(until Time) Time {
	if until < k.now {
		return k.now
	}
	for {
		c := &k.chain
		pending := c.fn != nil || len(k.queue) > 0
		fromChain := c.fn != nil && (len(k.queue) == 0 ||
			c.at < k.queue[0].at || c.at == k.queue[0].at && c.seq < k.queue[0].seq)
		var at Time
		if fromChain {
			at = c.at
		} else if pending {
			at = k.queue[0].at
		}
		if !pending || at > k.now {
			if k.lane.Len() > 0 {
				fn := k.lane.Pop()
				k.count()
				fn()
				continue
			}
			if !pending {
				k.flushEvents()
				return k.now
			}
			if at > until {
				// Leave the event queued; advance time to the horizon so
				// repeated Run calls behave like a paused simulation.
				k.now = until
				k.flushEvents()
				return k.now
			}
			k.now = at
		}
		k.count()
		if fromChain {
			k.fireChain()
			continue
		}
		k.firing = true
		k.queue[0].fn()
		if k.firing {
			k.firing = false
			k.queue.pop()
		}
	}
}

// count tallies one delivered event, flushing the live counter in batches.
//
//ssdx:hotpath
func (k *Kernel) count() {
	k.Executed++
	if k.Events != nil && k.Executed-k.flushedEvents >= eventFlushBatch {
		k.flushEvents()
	}
}

// RunAll executes events until the queue drains.
func (k *Kernel) RunAll() Time { return k.Run(MaxTime) }

// Clock describes a clock domain: models align resource grants to its edges
// to keep cycle accuracy without per-cycle ticking.
type Clock struct {
	Period Time
	Name   string
}

// NewClock builds a clock from a frequency in MHz.
func NewClock(name string, mhz float64) *Clock {
	if mhz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return &Clock{Period: Time(float64(Second) / (mhz * 1e6)), Name: name}
}

// NextEdge returns the first clock edge at or after t.
func (c *Clock) NextEdge(t Time) Time {
	p := c.Period
	if p <= 0 {
		return t
	}
	rem := t % p
	if rem == 0 {
		return t
	}
	return t + (p - rem)
}

// Cycles converts a cycle count to a duration.
func (c *Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// CyclesAt reports how many full cycles have elapsed at time t.
func (c *Clock) CyclesAt(t Time) int64 {
	if c.Period <= 0 {
		return 0
	}
	return int64(t / c.Period)
}
