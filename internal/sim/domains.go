package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/telemetry/metrics"
)

// This file implements the sharded discrete-event core: a set of clock
// domains, each wrapping its own Kernel, synchronized with conservative
// lookahead. Domains advance together through bounded time windows
// [T, T+lookahead) where T is the global minimum next-event time; within a
// window every domain executes independently, because any message it could
// receive from another domain carries at least `lookahead` of modeled
// hand-off latency and therefore cannot land inside the current window. At
// each window barrier the coordinator collects every domain's outbound
// messages, orders them deterministically — by timestamp, ties broken by
// sender domain id and then send order — and injects them into the target
// kernels. Delivery order fixes the target kernel's sequence numbers, so a
// fixed seed produces a byte-identical execution.

// message is one cross-domain event: a callback to run on the target
// domain's kernel at an absolute timestamp at least `lookahead` ahead of the
// sender's clock when it was posted.
type message struct {
	at Time
	to int
	fn func()
}

// Domain is one clock domain of a DomainSet: a private event kernel plus an
// outbound message buffer drained at every window barrier.
type Domain struct {
	ds  *DomainSet
	id  int
	K   *Kernel
	out []message
}

// ID returns the domain's index within its set.
func (d *Domain) ID() int { return d.id }

// Post schedules fn on the target domain at the sender's current time plus
// delay. Posting to the sender's own domain is an ordinary local Schedule;
// posting to another domain requires delay >= the set's lookahead (the
// conservative-synchronization contract: a message created inside a window
// must not land inside it) and panics otherwise. Post must be called from
// the sender domain's executing event — that is what makes the send order,
// and therefore the deterministic merge at the barrier, well defined.
//
//ssdx:hotpath
func (d *Domain) Post(to *Domain, delay Time, fn func()) {
	if fn == nil {
		panic("sim: nil cross-domain callback")
	}
	if to == d {
		d.K.Schedule(delay, fn)
		return
	}
	if delay < d.ds.lookahead {
		causalityPanic(delay, d.ds.lookahead)
	}
	d.out = append(d.out, message{at: d.K.Now() + delay, to: to.id, fn: fn})
}

// causalityPanic formats the lookahead-violation panic off the hot path so
// Post itself stays allocation-free.
func causalityPanic(delay, lookahead Time) {
	panic(fmt.Sprintf("sim: cross-domain delay %v below lookahead %v violates causality",
		delay, lookahead))
}

// DomainSet coordinates n clock domains through conservative lookahead
// windows. Every window runs on the calling goroutine: the active domains
// execute one after another in domain-id order, then the barrier delivers
// their messages.
type DomainSet struct {
	domains   []*Domain
	lookahead Time

	stopped bool
	scratch []message // barrier merge buffer, reused across windows

	// metrics, when non-nil, mirrors coordinator activity into live
	// counters. Bound via SetMetrics before Run.
	metrics *DomainMetrics
}

// DomainMetrics is the live-metrics hook bundle for a DomainSet. Any field
// may be nil (the metric methods are nil-safe); a nil *DomainMetrics turns
// the whole layer off. Events is shared across every domain kernel. BusyNS
// and IdleNS split Run's wall time: busy inside domain kernels, idle in
// coordination (the next-event scan and the barrier's delivery). All values
// are wall-clock observations — they never feed back into simulated time,
// so enabling them cannot perturb determinism.
type DomainMetrics struct {
	Events         *metrics.Counter   // events executed across all domain kernels
	Windows        *metrics.Counter   // conservative windows completed
	Messages       *metrics.Counter   // cross-domain messages delivered
	WindowMessages *metrics.Histogram // messages merged per window barrier
	BusyNS         *metrics.Counter   // wall ns spent running domain windows
	IdleNS         *metrics.Counter   // wall ns spent coordinating windows
}

// SetMetrics binds (or, with nil, unbinds) live metrics. Must be called
// before Run.
func (ds *DomainSet) SetMetrics(m *DomainMetrics) {
	ds.metrics = m
	var ev *metrics.Counter
	if m != nil {
		ev = m.Events
	}
	for _, d := range ds.domains {
		d.K.Events = ev
	}
}

// NewDomainSet builds n domains. The lookahead is the minimum cross-domain
// hand-off latency and must be positive: a zero or negative lookahead gives
// windows no width, so conservative synchronization cannot make progress —
// the constructor panics rather than deadlock later.
func NewDomainSet(n int, lookahead Time) *DomainSet {
	if n < 1 {
		panic("sim: domain set needs at least one domain")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v (conservative windows need width)", lookahead))
	}
	ds := &DomainSet{lookahead: lookahead}
	for i := 0; i < n; i++ {
		ds.domains = append(ds.domains, &Domain{ds: ds, id: i, K: NewKernel()})
	}
	return ds
}

// Domain returns domain i.
func (ds *DomainSet) Domain(i int) *Domain { return ds.domains[i] }

// Domains returns the number of domains.
func (ds *DomainSet) Domains() int { return len(ds.domains) }

// Stop makes Run return at the next window barrier. Called from a domain's
// executing event, it lets the current window complete on every domain, so
// a stopped run still ends on a barrier.
func (ds *DomainSet) Stop() { ds.stopped = true }

// Executed sums delivered events across every domain's kernel.
func (ds *DomainSet) Executed() uint64 {
	var n uint64
	for _, d := range ds.domains {
		n += d.K.Executed
	}
	return n
}

// Now returns the latest clock across the domains — the simulated time the
// set as a whole has reached.
func (ds *DomainSet) Now() Time {
	var t Time
	for _, d := range ds.domains {
		if n := d.K.Now(); n > t {
			t = n
		}
	}
	return t
}

// Run advances every domain until no events and no undelivered messages
// remain, or until Stop. It returns the final set-wide time. The loop per
// window: find the global minimum next-event time T, run every domain with
// work before T+lookahead (idle domains are skipped — their clocks lag, but
// message injection uses absolute times so they catch up on first contact),
// then merge and deliver the window's cross-domain messages. With busy/idle
// counters bound, each phase is bracketed with wall-clock stamps; with
// metrics off the loop takes no timestamps.
func (ds *DomainSet) Run() Time {
	ds.stopped = false
	var busy, idle *metrics.Counter
	if m := ds.metrics; m != nil {
		busy, idle = m.BusyNS, m.IdleNS
	}
	timed := busy != nil || idle != nil
	var last time.Time
	if timed {
		last = time.Now() //ssdx:wallclock
	}
	lap := func(c *metrics.Counter) {
		now := time.Now() //ssdx:wallclock
		c.Add(uint64(now.Sub(last)))
		last = now
	}
	for !ds.stopped {
		t := MaxTime
		for _, d := range ds.domains {
			if at := d.K.NextAt(); at < t {
				t = at
			}
		}
		if t == MaxTime {
			break
		}
		horizon := t + ds.lookahead - 1
		if horizon < t {
			horizon = MaxTime // overflow clamp
		}
		if timed {
			lap(idle)
		}
		for _, d := range ds.domains {
			if d.K.NextAt() <= horizon {
				d.K.Run(horizon)
			}
		}
		if timed {
			lap(busy)
		}
		ds.deliver()
		if ds.metrics != nil {
			ds.metrics.Windows.Inc()
		}
	}
	if timed {
		lap(idle)
	}
	return ds.Now()
}

// deliver merges every domain's outbound messages — collected in domain-id
// order, stably sorted by timestamp, so ties resolve (timestamp, sender id,
// send order) — and injects them into the target kernels. Injection order
// assigns the target kernels' sequence numbers, which pins the execution
// order of same-timestamp deliveries; that is the whole determinism
// argument, so this function must stay order-stable.
func (ds *DomainSet) deliver() {
	msgs := ds.scratch[:0]
	for _, d := range ds.domains {
		msgs = append(msgs, d.out...)
		d.out = d.out[:0]
	}
	if len(msgs) > 1 {
		slices.SortStableFunc(msgs, func(a, b message) int { return cmp.Compare(a.at, b.at) })
	}
	if ds.metrics != nil {
		ds.metrics.Messages.Add(uint64(len(msgs)))
		ds.metrics.WindowMessages.Observe(float64(len(msgs)))
	}
	for i := range msgs {
		ds.domains[msgs[i].to].K.At(msgs[i].at, msgs[i].fn)
		msgs[i].fn = nil
	}
	ds.scratch = msgs[:0]
}
