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
// An event that may turn out to be a no-op need not be queued at all: a
// model can reserve the seq it would have had and queue it later, under
// that seq, only once it has work to do. The heap's (at, seq) order is
// total, so the late push fires exactly where the early one would have.
// Server's release is the one such event: it is queued only when a request
// waits for it.
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

// pop removes and returns the least event, refilling the root from the
// bottom and sifting it down. The heap must not be empty.
//
//ssdx:hotpath
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback so it can be collected
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(&q[r], &q[c]) {
				c = r
			}
			if !before(&q[c], &last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Kernel is the discrete-event simulation engine. It is not safe for
// concurrent use; all models run on the single simulation goroutine, which is
// what makes the platform deterministic (the paper's SystemC kernel has the
// same property for a fixed process ordering).
//
// Pending events sit in two queues. Events for a later time go to the heap.
// Events for the current time (a zero or negative delay, or an absolute time
// already reached) go to the same-time lane, a plain FIFO: they need no
// sift, and they are about a third of all scheduling. The lane is exact. A
// heap event at the current time was scheduled before time reached it, so
// its seq is lower than that of any lane event, which was scheduled at the
// current time; Run therefore fires heap events at now, then the lane, and
// only then advances time.
//
// A reserved seq (see reserve) stands for an event that was never queued.
// Run still lets time pass over it: when the queues run dry, time advances
// to the latest reserved slot (capped at Run's horizon), as it would have
// had the no-op event fired. Executed does not count such slots.
type Kernel struct {
	now      Time
	seq      uint64
	queue    eventHeap
	lane     FIFO[func()] // events at now, in scheduling order
	reserved Time         // latest time a seq was reserved for

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
	k.queue.push(event{at: t, seq: k.seq, fn: fn})
	k.seq++
}

// reserve takes the seq an event at t (later than now) would get from At,
// without queueing anything. The caller may queue the event later with
// atReserved; if it never does, only the time t is kept, for Run.
//
//ssdx:hotpath
func (k *Kernel) reserve(t Time) uint64 {
	seq := k.seq
	k.seq++
	if t > k.reserved {
		k.reserved = t
	}
	return seq
}

// atReserved queues fn at time t under a seq taken from reserve(t). It must
// be called before time passes t, so the event fires where an At(t, fn) in
// reserve's place would have.
//
//ssdx:hotpath
func (k *Kernel) atReserved(t Time, seq uint64, fn func()) {
	k.queue.push(event{at: t, seq: seq, fn: fn})
}

// NextAt returns the timestamp of the earliest pending event, or MaxTime
// when the queue is empty. The domain coordinator uses it to compute the
// global lower bound a conservative window starts from. Reserved slots that
// were never queued hold no work and do not count.
func (k *Kernel) NextAt() Time {
	switch {
	case k.lane.Len() > 0:
		return k.now
	case len(k.queue) > 0:
		return k.queue[0].at
	}
	return MaxTime
}

// Run executes events until both queues drain or until an event beyond
// `until` would fire. It returns the simulation time at exit. Events scheduled exactly at `until` are executed. Time never
// runs backwards: with until before Now, Run fires nothing and returns Now.
//
// Each step fires the heap's top if it is due now (it was scheduled before
// any lane event), else the lane's head, and only when both hold nothing
// for now does it advance time to the heap's top.
//
//ssdx:hotpath
func (k *Kernel) Run(until Time) Time {
	if until < k.now {
		return k.now
	}
	for {
		var fn func()
		switch {
		case len(k.queue) > 0 && k.queue[0].at == k.now:
			fn = k.queue.pop().fn
		case k.lane.Len() > 0:
			fn = k.lane.Pop()
		case len(k.queue) == 0:
			// Let time pass over reserved slots still ahead, as their no-op
			// events would have.
			if k.reserved > k.now {
				k.now = min(k.reserved, until)
			}
			k.flushEvents()
			return k.now
		case k.queue[0].at > until:
			// Leave the event queued; advance time to the horizon so
			// repeated Run calls behave like a paused simulation.
			k.now = until
			k.flushEvents()
			return k.now
		default:
			e := k.queue.pop()
			k.now, fn = e.at, e.fn
		}
		k.Executed++
		if k.Events != nil && k.Executed-k.flushedEvents >= eventFlushBatch {
			k.flushEvents()
		}
		fn()
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
