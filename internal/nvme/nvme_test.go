package nvme

import (
	"testing"

	"repro/internal/workload"
)

// TestTenantSetAggregates pins the scenario-level helpers core plans a run
// with: spans, request totals and read/write classification.
func TestTenantSetAggregates(t *testing.T) {
	set, err := ParseTenants(
		"r@high:100xRR,span=1m | w:200xSW,span=2m,arrival=poisson:5000 | p:50xSW,span=1m;80xRR,record,span=1m",
		baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := set.TotalRequests(); got != 100+200+50+80 {
		t.Errorf("TotalRequests = %d", got)
	}
	if !set.RandomWrites() {
		t.Error("two writing tenants must classify random")
	}
	// The phased tenant's namespace is its widest phase span.
	if got := set.Tenants[2].NSBytes(); got != 1<<20 {
		t.Errorf("phased NSBytes = %d", got)
	}

	closed, err := ParseTenants("a:10xSW,span=1m", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if closed.RandomWrites() {
		t.Error("single sequential writer misclassified as random")
	}
}

func TestValidateRejections(t *testing.T) {
	ok := Tenant{Name: "a", Workload: workload.Spec{
		Pattern: 0, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 10, Seed: 1}}
	cases := []struct {
		name string
		set  TenantSet
	}{
		{"empty set", TenantSet{}},
		{"bad policy", TenantSet{Tenants: []Tenant{ok}, Policy: Policy(9)}},
		{"no name", TenantSet{Tenants: []Tenant{{Workload: ok.Workload}}}},
		{"reserved chars", TenantSet{Tenants: []Tenant{{Name: "a|b", Workload: ok.Workload}}}},
		{"negative weight", TenantSet{Tenants: []Tenant{{Name: "a", Weight: -1, Workload: ok.Workload}}}},
		{"negative depth", TenantSet{Tenants: []Tenant{{Name: "a", Depth: -2, Workload: ok.Workload}}}},
		{"bad class", TenantSet{Tenants: []Tenant{{Name: "a", Class: Class(7), Workload: ok.Workload}}}},
		{"replay tenant", TenantSet{Tenants: []Tenant{{Name: "a", Workload: workload.Spec{TracePath: "x.trace"}}}}},
		{"replay phase", TenantSet{Tenants: []Tenant{{Name: "a", Workload: workload.Spec{
			Phases: []workload.Spec{{TracePath: "x.trace"}}}}}}},
		{"invalid workload", TenantSet{Tenants: []Tenant{{Name: "a"}}}},
	}
	for _, c := range cases {
		if err := c.set.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid set", c.name)
		}
	}
	if err := (TenantSet{Tenants: []Tenant{ok}}).Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// TestQueuesContract covers the compiled MultiSource surface the host
// interface consumes.
func TestQueuesContract(t *testing.T) {
	set, err := ParseTenants("a@urgent*2#6:10xSW,span=1m | b:10xSW;5xRR,record,span=1m", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	set.Policy = PolicyWRR
	q, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.set.Policy != PolicyWRR {
		t.Errorf("compiled policy = %v", q.set.Policy)
	}
	if q.QueueDepth(0) != 6 || q.QueueDepth(1) != 0 {
		t.Errorf("depths = %d %d", q.QueueDepth(0), q.QueueDepth(1))
	}
	// Queue a has no phase structure: always recording. Queue b records
	// only its second phase; its stream's Recording reflects the last
	// request Next pulled.
	if !q.Stream(0).Recording() || q.Stream(0).Phased() || !q.Stream(1).Phased() {
		t.Error("plain queue must record, and only queue b declares phases")
	}
	if _, ok := q.Next(1); !ok {
		t.Fatal("queue b empty")
	}
	if q.Stream(1).Recording() {
		t.Error("queue b's first phase is unrecorded")
	}
	for i := 0; i < 10; i++ { // drain phase one, enter the recorded phase
		if _, ok := q.Next(1); !ok {
			t.Fatal("queue b ended early")
		}
	}
	if !q.Stream(1).Recording() {
		t.Error("queue b's second phase must record")
	}
	// Pick delegates to the arbiter: the urgent queue always wins.
	if got := q.Pick([]int{0, 1}); got != 0 {
		t.Errorf("Pick = %d, want the urgent queue", got)
	}
	q.SetClock(func() float64 { return 0 }) // every tenant stream accepts the clock
	if err := q.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}
