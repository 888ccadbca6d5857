package sim

// Server models a shared hardware resource that serves one request at a time
// (an ECC engine, a DMA engine, an ONFI channel bus in shared-bus gang mode,
// a CPU core...). Requests are granted in arrival order, optionally aligned
// to a clock edge, which is how the platform keeps cycle-level timing without
// simulating individual signal toggles.
type Server struct {
	k     *Kernel
	clock *Clock // optional: grants align to edges of this clock
	name  string

	busyUntil Time
	queue     FIFO[serverReq] // waiting requests
	// dones holds the done of every granted window whose end event has not
	// fired, oldest first. A request arriving at the very time a window ends
	// may be granted before that window's end event fires, and zero-length
	// windows stack up in the same-time lane, so several can be pending.
	dones FIFO[func()]
	endFn func() // the window-end callback, bound once

	// Stats
	Served    uint64
	BusyTime  Time
	lastIdle  Time
	QueuePeak int

	// OnServe, when set, observes every granted service window. It is a
	// tracing hook: nil (the default) costs one predictable branch in kick,
	// keeping the uninstrumented hot path allocation-free.
	OnServe func(start, end Time)
}

// serverReq is one waiting acquisition.
type serverReq struct {
	dur  Time
	done func()
}

// NewServer builds a server bound to kernel k. clock may be nil for an
// unclocked (purely latency-based) resource.
func NewServer(k *Kernel, clock *Clock, name string) *Server {
	s := &Server{k: k, clock: clock, name: name}
	s.endFn = s.windowEnd
	return s
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Acquire requests exclusive use of the resource for dur. Requests are
// served in arrival order; the resource is released at the end of the
// window and done, if non-nil, runs then, after the release has granted the
// next waiter. The window itself is observable only through OnServe.
//
//ssdx:hotpath
func (s *Server) Acquire(dur Time, done func()) {
	if dur < 0 {
		dur = 0
	}
	s.queue.Push(serverReq{dur: dur, done: done})
	if s.queue.Len() > s.QueuePeak {
		s.QueuePeak = s.queue.Len()
	}
	s.kick()
}

// kick starts the next queued request if the resource is free. Each grant
// queues one event, at the window's end, that both releases the resource
// and runs the holder's done: a release and a done queued one after the
// other would be adjacent in (at, seq) order, so one event in their place
// runs the same callbacks in the same order.
//
//ssdx:hotpath
func (s *Server) kick() {
	if s.queue.Len() == 0 {
		return
	}
	now := s.k.Now()
	if s.busyUntil > now {
		// Busy: the window's end event will re-kick.
		return
	}
	req := s.queue.Pop()

	start := now
	if s.clock != nil {
		start = s.clock.NextEdge(start)
	}
	end := start + req.dur
	s.busyUntil = end
	s.Served++
	s.BusyTime += end - start
	if s.OnServe != nil {
		s.OnServe(start, end)
	}
	s.dones.Push(req.done)
	s.k.At(end, s.endFn)
}

// windowEnd ends the oldest granted window: it grants the next waiter, then
// runs the finished holder's done.
//
//ssdx:hotpath
func (s *Server) windowEnd() {
	s.kick()
	if done := s.dones.Pop(); done != nil {
		done()
	}
}

// Utilization returns busy-time divided by total elapsed time at `now`.
func (s *Server) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(now)
}

// TokenGate limits concurrency to N outstanding holders (a counting
// semaphore in event-driven form). It models resources that allow bounded
// pipelining rather than strict mutual exclusion, e.g. the NCQ command window
// or per-die outstanding operation limits.
type TokenGate struct {
	k       *Kernel
	cap     int
	held    int
	waiters FIFO[gateWaiter]

	Acquired uint64
	WaitPeak int
	// WaitTime accumulates the total time waiters spent queued before their
	// token grant — the raw material for queueing-stage attribution (e.g.
	// the host command window's share of command latency).
	WaitTime Time
}

// gateWaiter is one queued acquirer with its enqueue time.
type gateWaiter struct {
	since Time
	fn    func()
}

// NewTokenGate builds a gate admitting capacity concurrent holders.
func NewTokenGate(k *Kernel, capacity int) *TokenGate {
	if capacity < 1 {
		capacity = 1
	}
	return &TokenGate{k: k, cap: capacity}
}

// TryAcquire takes a token immediately if available.
//
//ssdx:hotpath
func (g *TokenGate) TryAcquire() bool {
	if g.held < g.cap {
		g.held++
		g.Acquired++
		return true
	}
	return false
}

// AcquireWhenFree queues fn to run (holding a token) as soon as one frees.
//
//ssdx:hotpath
func (g *TokenGate) AcquireWhenFree(fn func()) {
	if g.TryAcquire() {
		g.k.Schedule(0, fn)
		return
	}
	g.waiters.Push(gateWaiter{since: g.k.Now(), fn: fn})
	if g.waiters.Len() > g.WaitPeak {
		g.WaitPeak = g.waiters.Len()
	}
}

// Release returns a token, waking the oldest waiter if any.
//
//ssdx:hotpath
func (g *TokenGate) Release() {
	if g.held <= 0 {
		panic("sim: TokenGate release without acquire")
	}
	if g.waiters.Len() > 0 {
		w := g.waiters.Pop()
		g.Acquired++
		g.WaitTime += g.k.Now() - w.since
		g.k.Schedule(0, w.fn)
		return
	}
	g.held--
}
