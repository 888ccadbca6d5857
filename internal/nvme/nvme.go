// Package nvme models an NVMe-style multi-queue host front end: N
// submission/completion queue pairs, namespaces that partition the drive's
// LBA space, and pluggable arbitration between the queues (round-robin,
// weighted round-robin with an urgent class, strict priority — the NVMe
// specification's three arbitration mechanisms). Each queue binds its own
// workload, so one scenario can run a latency-sensitive reader next to a
// throughput-hungry writer and measure how well the arbitration policy
// isolates them. The compiled form plugs into the host interface's
// multi-queue trace player (hostif.MultiSource); the paper's single-stream
// trace player is the degenerate one-queue case.
package nvme

import (
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Class is an NVMe-style priority class. Higher values are more urgent;
// strict-priority arbitration always serves the highest ready class, and
// weighted round-robin serves the urgent class ahead of all weighted ones.
type Class uint8

// Priority classes, lowest first.
const (
	ClassLow Class = iota
	ClassMedium
	ClassHigh
	ClassUrgent

	numClasses
)

// classNames indexes Class.String.
var classNames = [numClasses]string{"low", "medium", "high", "urgent"}

// String names the class (stable: used by the tenant DSL and CSV exports).
func (c Class) String() string {
	if c < numClasses {
		return classNames[c]
	}
	return "?"
}

// ParseClass decodes a class name.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "low":
		return ClassLow, nil
	case "medium", "med", "":
		return ClassMedium, nil
	case "high":
		return ClassHigh, nil
	case "urgent":
		return ClassUrgent, nil
	}
	return 0, fmt.Errorf("nvme: unknown priority class %q", s)
}

// Policy selects the arbitration mechanism between submission queues.
type Policy uint8

// Arbitration policies.
const (
	// PolicyRR serves ready queues in strict rotation, ignoring weight and
	// class — the NVMe round-robin arbiter and the fairness baseline.
	PolicyRR Policy = iota
	// PolicyWRR serves the urgent class ahead of everything, then shares
	// service among the remaining ready queues in proportion to their
	// weights (NVMe weighted round robin with urgent priority class).
	PolicyWRR
	// PolicyPrio always serves the highest ready class, round-robin within
	// a class — strict priority, the strongest isolation and the least
	// fairness.
	PolicyPrio

	numPolicies
)

// policyNames indexes Policy.String.
var policyNames = [numPolicies]string{"rr", "wrr", "prio"}

// String names the policy.
func (p Policy) String() string {
	if p < numPolicies {
		return policyNames[p]
	}
	return "?"
}

// ParsePolicy decodes an arbitration policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rr", "roundrobin", "round-robin", "":
		return PolicyRR, nil
	case "wrr", "weighted":
		return PolicyWRR, nil
	case "prio", "priority", "strict":
		return PolicyPrio, nil
	}
	return 0, fmt.Errorf("nvme: unknown arbitration policy %q", s)
}

// Tenant is one submission/completion queue pair and the client behind it:
// a name, an arbitration weight and priority class, a bound on outstanding
// commands, and the workload the queue submits. Each tenant owns a private
// namespace — a contiguous LBA partition sized by its workload span — so
// tenants never alias each other's blocks.
type Tenant struct {
	Name string `json:"name"`
	// Weight is the WRR share (>= 1; a zero value is normalised to 1).
	Weight int `json:"weight,omitempty"`
	// Class is the priority class (default medium).
	Class Class `json:"class,omitempty"`
	// Depth bounds the tenant's outstanding commands (submission-queue
	// entries plus in-flight). 0 defers to the host interface's window.
	Depth int `json:"depth,omitempty"`
	// Burst is the arbitration burst (NVMe's Arbitration Burst field): how
	// many consecutive commands the arbiter may take from this queue per
	// grant before rotating, modelling controllers that amortise
	// doorbell/fetch costs. 0 or 1 = one command per grant (the strict
	// round-robin baseline). Under WRR a burst never outlives the queue's
	// credits, so weights stay exact.
	Burst int `json:"burst,omitempty"`
	// Workload is the request stream the queue submits. Addresses are
	// namespace-relative; the compiled queue offsets them into the
	// tenant's partition.
	Workload workload.Spec `json:"workload"`
}

// NormWeight returns the normalised WRR share (a zero Weight counts as 1).
func (t Tenant) NormWeight() int {
	if t.Weight < 1 {
		return 1
	}
	return t.Weight
}

// weight is the internal alias.
func (t Tenant) weight() int { return t.NormWeight() }

// NormBurst returns the normalised arbitration burst (a zero Burst counts
// as 1).
func (t Tenant) NormBurst() int {
	if t.Burst < 1 {
		return 1
	}
	return t.Burst
}

// NSBytes returns the tenant's namespace size: the widest span any of its
// phases addresses.
func (t Tenant) NSBytes() int64 {
	return specSpan(t.Workload)
}

// specSpan returns the widest SpanBytes a spec (or any phase) declares.
func specSpan(s workload.Spec) int64 {
	if len(s.Phases) > 0 {
		var max int64
		for _, ph := range s.Phases {
			if sp := specSpan(ph); sp > max {
				max = sp
			}
		}
		return max
	}
	return s.SpanBytes
}

// Describe renders a compact tenant label in the DSL header syntax.
func (t Tenant) Describe() string {
	b := t.Name
	if t.Class != ClassMedium {
		b += "@" + t.Class.String()
	}
	if t.weight() != 1 {
		b += fmt.Sprintf("*%d", t.weight())
	}
	if t.Depth > 0 {
		b += fmt.Sprintf("#%d", t.Depth)
	}
	if t.NormBurst() != 1 {
		b += fmt.Sprintf("!%d", t.NormBurst())
	}
	return b
}

// TenantSet is a complete multi-queue scenario: the tenants (one queue pair
// each) and the arbitration policy that shares the device between them.
type TenantSet struct {
	Tenants []Tenant `json:"tenants"`
	Policy  Policy   `json:"policy"`
}

// Validate checks the set for consistency.
func (s TenantSet) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("nvme: tenant set is empty")
	}
	if s.Policy >= numPolicies {
		return fmt.Errorf("nvme: unknown policy %d", s.Policy)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("nvme: tenant %d has no name", i)
		}
		if strings.ContainsAny(t.Name, "|:@*#!,;= \t") {
			return fmt.Errorf("nvme: tenant name %q contains reserved characters", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("nvme: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight < 0 {
			return fmt.Errorf("nvme: tenant %q weight %d must be >= 0", t.Name, t.Weight)
		}
		if t.Depth < 0 {
			return fmt.Errorf("nvme: tenant %q depth %d must be >= 0", t.Name, t.Depth)
		}
		if t.Burst < 0 {
			return fmt.Errorf("nvme: tenant %q burst %d must be >= 0", t.Name, t.Burst)
		}
		if t.Class >= numClasses {
			return fmt.Errorf("nvme: tenant %q has unknown class %d", t.Name, t.Class)
		}
		if t.Workload.HasReplay() && t.NSBytes() <= 0 {
			// A replayed trace carries no request count to size a namespace
			// from; the span declares it.
			return fmt.Errorf("nvme: tenant %q replays a trace; declare its namespace size with span=<size>", t.Name)
		}
		if err := t.Workload.Validate(); err != nil {
			return fmt.Errorf("nvme: tenant %q: %w", t.Name, err)
		}
	}
	return nil
}

// Layout returns each tenant's namespace base offset in sectors: namespaces
// are packed contiguously in declaration order.
func (s TenantSet) Layout() []int64 {
	bases := make([]int64, len(s.Tenants))
	var off int64
	for i, t := range s.Tenants {
		bases[i] = off / trace.SectorSize
		off += t.NSBytes()
	}
	return bases
}

// RandomWrites reports whether any tenant's write traffic addresses randomly
// — the conservative input to the WAF abstraction. Interleaving multiple
// sequential streams also breaks drive-level sequentiality, so any mix of
// two or more writing tenants classifies as random.
func (s TenantSet) RandomWrites() bool {
	writers := 0
	for _, t := range s.Tenants {
		if !t.Workload.HasWrites() {
			continue
		}
		writers++
		if t.Workload.RandomWrites() {
			return true
		}
	}
	return writers > 1
}

// TotalRequests sums the tenants' request counts (-1 if any is unknown).
func (s TenantSet) TotalRequests() int {
	total := 0
	for _, t := range s.Tenants {
		n := t.Workload.TotalRequests()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// Describe renders a compact human label for result tables.
func (s TenantSet) Describe() string {
	parts := make([]string, len(s.Tenants))
	for i, t := range s.Tenants {
		parts[i] = t.Describe()
	}
	return fmt.Sprintf("%s[%s]", s.Policy, strings.Join(parts, "|"))
}

// Canonical renders every field that affects the generated streams and the
// arbitration outcome, one stable block per tenant — the content-hash input
// for design-point caching.
func (s TenantSet) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenantset: policy=%d n=%d\n", s.Policy, len(s.Tenants))
	for _, t := range s.Tenants {
		fmt.Fprintf(&b, "tenant: %q weight=%d class=%d depth=%d burst=%d\n", t.Name, t.weight(), t.Class, t.Depth, t.NormBurst())
		b.WriteString(t.Workload.Canonical())
	}
	return b.String()
}
