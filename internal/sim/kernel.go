// Package sim provides the discrete-event simulation kernel used by every
// SSDExplorer model. It substitutes for the SystemC kernel the paper builds
// on: picosecond-resolution simulated time, a deterministic ordered event
// queue, clock domains for cycle-edge alignment, and simple server/queue
// primitives for modeling shared hardware resources.
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

// FromNanoseconds converts a float nanosecond quantity to Time.
func FromNanoseconds(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// FromMicroseconds converts a float microsecond quantity to Time.
func FromMicroseconds(us float64) Time { return Time(us * float64(Microsecond)) }

// event is a scheduled callback. seq provides deterministic FIFO ordering
// among events scheduled for the same timestamp. Events are pooled: fired
// and cancelled events return to the kernel's free list, and gen counts
// reuses so stale EventIDs cannot cancel a recycled event.
type event struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

// eventHeap is a typed binary min-heap ordered by (at, seq). Every event's
// index field tracks its slot so Cancel can remove it in O(log n). (at, seq)
// is a total order, so the pop order does not depend on the heap's shape.
type eventHeap []*event

// before reports whether event a fires before event b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds e at the bottom and sifts it up.
//
//ssdx:hotpath
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes out the event at slot i, refilling the slot from the bottom.
//
//ssdx:hotpath
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	q[i].index = -1
	if i != n {
		q[i] = q[n]
		if !h.down(i, n) {
			h.up(i)
		}
	}
	q[n] = nil
	*h = q[:n]
}

// up sifts the event at slot i towards the root.
//
//ssdx:hotpath
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down sifts the event at slot i towards the leaves of h[:n] and reports
// whether it moved.
//
//ssdx:hotpath
func (h eventHeap) down(i, n int) bool {
	e, i0 := h[i], i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i > i0
}

// EventID identifies a scheduled event so it can be cancelled. The
// generation tag pins the identity to one scheduling, so an ID held past
// its event's execution is inert even after the event struct is reused.
type EventID struct {
	ev  *event
	gen uint64
}

// Kernel is the discrete-event simulation engine. It is not safe for
// concurrent use; all models run on the single simulation goroutine, which is
// what makes the platform deterministic (the paper's SystemC kernel has the
// same property for a fixed process ordering).
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool

	// free pools fired/cancelled events for reuse. A simulation schedules
	// millions of events but only ever has O(in-flight) pending, so the
	// pool drops allocation pressure to near zero in steady state.
	free FreeList[event]

	// Executed counts delivered events; used by the simulation-speed
	// experiment (Fig. 6) and by sanity limits in tests.
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
func (k *Kernel) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute time t (clamped to now).
//
//ssdx:hotpath
func (k *Kernel) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < k.now {
		t = k.now
	}
	e := k.alloc()
	e.at, e.seq, e.fn = t, k.seq, fn
	k.seq++
	k.queue.push(e)
	return EventID{ev: e, gen: e.gen}
}

// alloc takes an event from the free list, or allocates a fresh one.
//
//ssdx:hotpath
func (k *Kernel) alloc() *event {
	if e := k.free.Take(); e != nil {
		return e
	}
	return &event{}
}

// recycle clears a finished event and returns it to the free list. The
// generation bump invalidates every outstanding EventID for it.
//
//ssdx:hotpath
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.index = -1
	k.free.Give(e)
}

// Cancel removes a pending event. Cancelling an already-fired or already-
// cancelled event is a no-op and returns false.
//
//ssdx:hotpath
func (k *Kernel) Cancel(id EventID) bool {
	if id.ev == nil || id.ev.gen != id.gen || id.ev.index < 0 {
		return false
	}
	k.queue.remove(id.ev.index)
	k.recycle(id.ev)
	return true
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextAt returns the timestamp of the earliest pending event, or MaxTime
// when the queue is empty. The domain coordinator uses it to compute the
// global lower bound a conservative window starts from.
func (k *Kernel) NextAt() Time {
	if len(k.queue) == 0 {
		return MaxTime
	}
	return k.queue[0].at
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains, until an event beyond `until`
// would fire, or until Stop is called. It returns the simulation time at
// exit. Events scheduled exactly at `until` are executed.
//
//ssdx:hotpath
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		next := k.queue[0]
		if next.at > until {
			// Leave the event queued; advance time to the horizon so
			// repeated Run calls behave like a paused simulation.
			k.now = until
			k.flushEvents()
			return k.now
		}
		k.queue.remove(0)
		k.now = next.at
		fn := next.fn
		k.recycle(next)
		k.Executed++
		if k.Events != nil && k.Executed-k.flushedEvents >= eventFlushBatch {
			k.flushEvents()
		}
		fn()
	}
	k.flushEvents()
	return k.now
}

// RunAll executes events until the queue drains or Stop is called.
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

// FreqMHz returns the clock frequency in MHz.
func (c *Clock) FreqMHz() float64 { return 1e-6 * float64(Second) / float64(c.Period) }

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
