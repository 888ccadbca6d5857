package nvme

// Arbiter picks which submission queue the device services next. Pick is
// called once per dispatch with the indices of every queue that has a
// pending head command, in ascending order; it returns one of them. The
// arbiter owns any rotation or credit state, so decisions can depend on
// service history (round-robin position, WRR credits) as well as on the
// static tenant attributes it was built with.
type Arbiter interface {
	// Pick chooses among the ready queue indices. ready is never empty.
	Pick(ready []int) int
}

// NewArbiter builds the arbiter for a policy over the given tenants.
func NewArbiter(p Policy, tenants []Tenant) Arbiter {
	switch p {
	case PolicyWRR:
		w := &wrrArbiter{rr: roundRobin{last: -1}, b: newBurster(tenants), credits: make([]int, len(tenants))}
		w.weights = make([]int, len(tenants))
		w.urgent = make([]bool, len(tenants))
		for i, t := range tenants {
			w.weights[i] = t.weight()
			w.urgent[i] = t.Class == ClassUrgent
		}
		return w
	case PolicyPrio:
		pr := &prioArbiter{rr: roundRobin{last: -1}, b: newBurster(tenants), class: make([]Class, len(tenants))}
		for i, t := range tenants {
			pr.class[i] = t.Class
		}
		return pr
	default:
		return &rrArbiter{rr: roundRobin{last: -1}, b: newBurster(tenants)}
	}
}

// burster grants each queue a consecutive-service burst (NVMe's Arbitration
// Burst field): once a queue wins an arbitration, it keeps winning while it
// stays in the candidate set, up to its burst length, before the rotation
// resumes. A queue that leaves the candidate set mid-burst — drained,
// outranked by a higher class, or (under WRR) out of credits — forfeits the
// rest of its burst.
type burster struct {
	bursts []int // per-queue burst length (>= 1)
	q      int   // queue currently bursting (-1 = none)
	left   int   // grants left in the current burst
}

// newBurster reads each tenant's normalised burst.
func newBurster(tenants []Tenant) burster {
	b := burster{q: -1, bursts: make([]int, len(tenants))}
	for i, t := range tenants {
		b.bursts[i] = t.NormBurst()
	}
	return b
}

// pick serves the in-progress burst if its queue is still a candidate,
// otherwise defers to the rotation rr and opens the winner's burst.
//
//ssdx:hotpath
func (b *burster) pick(candidates []int, rr *roundRobin) int {
	if b.left > 0 {
		for _, q := range candidates {
			if q == b.q {
				b.left--
				return q
			}
		}
	}
	q := rr.pick(candidates)
	b.q, b.left = q, b.bursts[q]-1
	return q
}

// roundRobin rotates over ready queue indices: the queue after the most
// recently served one (in index order, wrapping) is served next.
type roundRobin struct{ last int }

// pick returns the first ready index strictly after last, wrapping.
//
//ssdx:hotpath
func (r *roundRobin) pick(ready []int) int {
	choice := ready[0]
	for _, q := range ready {
		if q > r.last {
			choice = q
			break
		}
	}
	r.last = choice
	return choice
}

// rrArbiter is plain NVMe round-robin arbitration (with per-queue
// arbitration bursts).
type rrArbiter struct {
	rr roundRobin
	b  burster
}

//ssdx:hotpath
func (a *rrArbiter) Pick(ready []int) int { return a.b.pick(ready, &a.rr) }

// wrrArbiter is NVMe weighted round robin with an urgent class: urgent
// queues are served strictly first (round-robin among themselves); the
// remaining queues share service in proportion to their weights via a
// credit scheme — each service consumes one credit, and when every ready
// weighted queue is out of credits, all queues replenish to their weight.
// Arbitration bursts apply within the stage that wins: an urgent arrival
// preempts a weighted queue's burst, and a weighted burst is bounded by the
// queue's remaining credits, so weights stay exact across burst sizes.
type wrrArbiter struct {
	rr      roundRobin
	b       burster
	weights []int
	credits []int
	urgent  []bool

	urgentBuf, weightedBuf []int // reusable Pick scratch
}

//ssdx:hotpath
func (a *wrrArbiter) Pick(ready []int) int {
	a.urgentBuf, a.weightedBuf = a.urgentBuf[:0], a.weightedBuf[:0]
	for _, q := range ready {
		if a.urgent[q] {
			a.urgentBuf = append(a.urgentBuf, q)
		} else {
			a.weightedBuf = append(a.weightedBuf, q)
		}
	}
	if len(a.urgentBuf) > 0 {
		return a.b.pick(a.urgentBuf, &a.rr)
	}
	// Weighted classes: rotate among queues that still hold credits;
	// replenish when the ready set is dry.
	funded := a.urgentBuf[:0] // reuse: urgentBuf is empty here
	for _, q := range a.weightedBuf {
		if a.credits[q] > 0 {
			funded = append(funded, q)
		}
	}
	a.urgentBuf = funded // keep the grown scratch for the next Pick
	if len(funded) == 0 {
		for i, w := range a.weights {
			a.credits[i] = w
		}
		funded = a.weightedBuf
	}
	choice := a.b.pick(funded, &a.rr)
	a.credits[choice]--
	return choice
}

// prioArbiter is strict priority: the highest ready class always wins,
// round-robin within the class. Arbitration bursts apply within a class; a
// higher class becoming ready preempts a lower queue's burst.
type prioArbiter struct {
	rr    roundRobin
	b     burster
	class []Class

	buf []int // reusable Pick scratch
}

//ssdx:hotpath
func (a *prioArbiter) Pick(ready []int) int {
	best := a.class[ready[0]]
	for _, q := range ready[1:] {
		if a.class[q] > best {
			best = a.class[q]
		}
	}
	a.buf = a.buf[:0]
	for _, q := range ready {
		if a.class[q] == best {
			a.buf = append(a.buf, q)
		}
	}
	return a.b.pick(a.buf, &a.rr)
}
