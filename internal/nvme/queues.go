package nvme

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Queues is a compiled TenantSet: one live generator per submission queue,
// namespace offsets applied, plus the arbitration state. It implements the
// host interface's MultiSource contract (per-queue streams, per-queue
// depths, a Pick decision at every dispatch), so the multi-queue trace
// player can drive it without knowing about tenants.
type Queues struct {
	set    TenantSet
	arb    Arbiter
	gens   []workload.Generator
	marks  []workload.Marks // per-queue record and phase structure
	bases  []int64          // namespace base offsets, sectors
	limits []int64          // namespace sizes in sectors; 0 = unchecked
	errs   []error          // per-queue namespace violations
}

// Compile builds the live queue set: validates, lays out namespaces, and
// instantiates one generator per tenant.
func (s TenantSet) Compile() (*Queues, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	q := &Queues{
		set:    s,
		arb:    NewArbiter(s.Policy, s.Tenants),
		gens:   make([]workload.Generator, len(s.Tenants)),
		marks:  make([]workload.Marks, len(s.Tenants)),
		bases:  s.Layout(),
		limits: make([]int64, len(s.Tenants)),
		errs:   make([]error, len(s.Tenants)),
	}
	for i, t := range s.Tenants {
		if t.Workload.HasReplay() {
			// Synthetic generators are span-bounded by construction; a
			// replayed trace can address anything, so its requests are
			// checked against the namespace before rebasing (a violation
			// must error, never silently alias a neighbour's partition).
			q.limits[i] = t.NSBytes() / trace.SectorSize
		}
		g, err := t.Workload.Generator()
		if err != nil {
			q.Close()
			return nil, fmt.Errorf("nvme: tenant %q: %w", t.Name, err)
		}
		q.gens[i] = g
		q.marks[i] = workload.MarksOf(g)
	}
	return q, nil
}

// Set returns the tenant set the queues were compiled from.
func (q *Queues) Set() TenantSet { return q.set }

// NumQueues implements hostif.MultiSource.
func (q *Queues) NumQueues() int { return len(q.gens) }

// QueueName implements hostif.MultiSource.
func (q *Queues) QueueName(i int) string { return q.set.Tenants[i].Name }

// QueueDepth implements hostif.MultiSource: the tenant's outstanding-command
// bound (0 defers to the host interface's window).
func (q *Queues) QueueDepth(i int) int { return q.set.Tenants[i].Depth }

// Next implements hostif.MultiSource: the tenant's next request, rebased
// into its namespace partition. A replayed request reaching beyond the
// tenant's namespace ends the queue's stream with an error (surfaced by
// Err) instead of wrapping into a neighbour's partition.
func (q *Queues) Next(i int) (trace.Request, bool) {
	if q.errs[i] != nil {
		return trace.Request{}, false
	}
	req, ok := q.gens[i].Next()
	if !ok {
		return req, false
	}
	if lim := q.limits[i]; lim > 0 && req.EndLBA() > lim {
		q.errs[i] = fmt.Errorf("nvme: tenant %q trace request [LBA %d, %d bytes] exceeds its %d-sector namespace; raise span=",
			q.set.Tenants[i].Name, req.LBA, req.Bytes, lim)
		return trace.Request{}, false
	}
	req.LBA += q.bases[i]
	return req, true
}

// Recording implements hostif.MultiSource: whether queue i's most recently
// pulled request belongs to a measured phase.
func (q *Queues) Recording(i int) bool { return q.marks[i].Recording() }

// Phase implements hostif.MultiSource: which workload phase queue i's most
// recently pulled request belongs to.
func (q *Queues) Phase(i int) int { return q.marks[i].Phase() }

// Phased implements hostif.MultiSource: whether queue i's generator has
// phase structure.
func (q *Queues) Phased(i int) bool { return q.marks[i].Phased() }

// Pick implements hostif.MultiSource by delegating to the arbiter.
func (q *Queues) Pick(ready []int) int { return q.arb.Pick(ready) }

// SetClock forwards the simulation clock to phase-aware generators (open-
// loop arrival rebasing across closed-loop phase boundaries).
func (q *Queues) SetClock(now func() float64) {
	for _, g := range q.gens {
		if c, ok := g.(workload.Clocked); ok {
			c.SetClock(now)
		}
	}
}

// SoleWriterClassification returns the live stream classifier of the set's
// single writing tenant, when that tenant's generator classifies its own
// stream (trace replay or a synthetic phase chain); nil otherwise. With two
// or more writing tenants the drive-level write mix is pinned random by
// queue interleaving regardless of each stream's own shape, so no single
// live estimate applies.
func (q *Queues) SoleWriterClassification() *workload.Classifier {
	var cls *workload.Classifier
	writers := 0
	for i, t := range q.set.Tenants {
		if !t.Workload.HasWrites() {
			continue
		}
		if writers++; writers > 1 {
			return nil
		}
		if cg, ok := q.gens[i].(workload.Classifying); ok {
			cls = cg.Classification()
		}
	}
	return cls
}

// Err surfaces the first stream error any queue hit: a namespace violation
// first, then any generator (trace decode / IO) error.
func (q *Queues) Err() error {
	for _, err := range q.errs {
		if err != nil {
			return err
		}
	}
	for i, g := range q.gens {
		if e, ok := g.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				return fmt.Errorf("nvme: tenant %q: %w", q.set.Tenants[i].Name, err)
			}
		}
	}
	return nil
}

// Close releases any generator-held resources.
func (q *Queues) Close() error {
	var first error
	for _, g := range q.gens {
		if g == nil {
			continue
		}
		if c, ok := g.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
