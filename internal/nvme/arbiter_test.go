package nvme

import (
	"reflect"
	"testing"
)

// tenantsFor builds minimal tenants with the given classes and weights.
func tenantsFor(classes []Class, weights []int) []Tenant {
	ts := make([]Tenant, len(classes))
	for i := range ts {
		ts[i] = Tenant{Name: string(rune('a' + i)), Class: classes[i], Weight: weights[i]}
	}
	return ts
}

// TestArbitrationOrder pins the exact service order of every policy over a
// fixed ready set: the arbiter is called repeatedly with all queues ready,
// so the sequence is the policy's steady-state schedule.
func TestArbitrationOrder(t *testing.T) {
	cases := []struct {
		name    string
		policy  Policy
		classes []Class
		weights []int
		ready   []int
		want    []int
	}{
		{
			name:    "rr rotates regardless of weight and class",
			policy:  PolicyRR,
			classes: []Class{ClassUrgent, ClassLow, ClassHigh},
			weights: []int{9, 1, 3},
			ready:   []int{0, 1, 2},
			want:    []int{0, 1, 2, 0, 1, 2},
		},
		{
			name:    "wrr shares by weight",
			policy:  PolicyWRR,
			classes: []Class{ClassMedium, ClassMedium},
			weights: []int{3, 1},
			ready:   []int{0, 1},
			// Credits replenish to {3,1}: rotation serves 0,1 while both are
			// funded, then 0 alone until its credits drain — 3:1 per cycle.
			want: []int{0, 1, 0, 0, 1, 0, 0, 0},
		},
		{
			name:    "wrr urgent class preempts weighted classes",
			policy:  PolicyWRR,
			classes: []Class{ClassUrgent, ClassMedium, ClassMedium},
			weights: []int{1, 8, 8},
			ready:   []int{0, 1, 2},
			want:    []int{0, 0, 0, 0},
		},
		{
			name:    "prio serves highest class, rr within class",
			policy:  PolicyPrio,
			classes: []Class{ClassLow, ClassHigh, ClassHigh},
			weights: []int{1, 1, 1},
			ready:   []int{0, 1, 2},
			want:    []int{1, 2, 1, 2, 1, 2},
		},
		{
			name:    "prio urgent beats high",
			policy:  PolicyPrio,
			classes: []Class{ClassHigh, ClassUrgent},
			weights: []int{1, 1},
			ready:   []int{0, 1},
			want:    []int{1, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arb := NewArbiter(tc.policy, tenantsFor(tc.classes, tc.weights))
			got := make([]int, len(tc.want))
			for i := range got {
				got[i] = arb.Pick(tc.ready)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s service order = %v, want %v", tc.policy, got, tc.want)
			}
		})
	}
}

// TestArbitrationFallback covers the degraded ready sets: a policy must
// serve whatever is ready, whatever its preferences.
func TestArbitrationFallback(t *testing.T) {
	tenants := tenantsFor(
		[]Class{ClassUrgent, ClassLow, ClassHigh},
		[]int{4, 1, 2},
	)
	for _, p := range []Policy{PolicyRR, PolicyWRR, PolicyPrio} {
		arb := NewArbiter(p, tenants)
		for q := 0; q < len(tenants); q++ {
			for rep := 0; rep < 5; rep++ {
				if got := arb.Pick([]int{q}); got != q {
					t.Fatalf("%s: Pick([%d]) = %d, want the only ready queue", p, q, got)
				}
			}
		}
	}
}

// TestWRRConvergesToWeights drives the WRR arbiter with every queue always
// ready and checks the long-run service shares match the weights.
func TestWRRConvergesToWeights(t *testing.T) {
	weights := []int{1, 2, 4}
	tenants := tenantsFor([]Class{ClassMedium, ClassMedium, ClassMedium}, weights)
	arb := NewArbiter(PolicyWRR, tenants)
	counts := make([]int, len(weights))
	const rounds = 7 * 100
	for i := 0; i < rounds; i++ {
		counts[arb.Pick([]int{0, 1, 2})]++
	}
	for i, w := range weights {
		want := rounds * w / 7
		if counts[i] != want {
			t.Errorf("queue %d served %d times, want %d (weights %v)", i, counts[i], want, weights)
		}
	}
}

// TestWRRPickAllocatesNothing checks that the WRR arbiter keeps its pick
// scratch when no queue is urgent: it picks once per command on the
// multi-queue host path.
func TestWRRPickAllocatesNothing(t *testing.T) {
	arb := NewArbiter(PolicyWRR, tenantsFor([]Class{ClassMedium, ClassHigh, ClassLow}, []int{1, 2, 4}))
	ready := []int{0, 1, 2}
	if n := testing.AllocsPerRun(1000, func() { arb.Pick(ready) }); n != 0 {
		t.Fatalf("WRR Pick allocates %v times per call", n)
	}
}

func BenchmarkArbiterPick(b *testing.B) {
	tenants := tenantsFor(
		[]Class{ClassUrgent, ClassHigh, ClassMedium, ClassMedium, ClassLow, ClassLow, ClassMedium, ClassHigh},
		[]int{1, 2, 3, 4, 5, 6, 7, 8},
	)
	ready := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, p := range []Policy{PolicyRR, PolicyWRR, PolicyPrio} {
		b.Run(p.String(), func(b *testing.B) {
			arb := NewArbiter(p, tenants)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arb.Pick(ready)
			}
		})
	}
}
