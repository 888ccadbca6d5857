package ssdx

import (
	"fmt"
	"strings"
	"testing"
)

// qosTraceScenario is the recorded-trace variant of the committed
// noisy-neighbor scenario: the same high-priority random reader, but the
// aggressor is an imported MSR Cambridge trace (committed under testdata)
// replayed into its own namespace — the ROADMAP follow-on that per-tenant
// replay unblocks. The aggressor's constant-timestamp writes rebase to a
// closed-loop backlog, so arbitration again decides the victim's fate.
func qosTraceScenario(t *testing.T) (Config, TenantSet) {
	t.Helper()
	base := Workload{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
	set, err := ParseTenants(
		"victim@high*9#4:900xRR | aggressor@low:replay:testdata/noisy_neighbor_aggressor.msr.csv,span=48m",
		base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	cfg.CachePolicy = "nocache"
	return cfg, set
}

// TestQoSIsolationTraceGolden sweeps the arbitration policy over the
// trace-aggressor scenario, asserts WRR and strict priority strictly beat
// round robin on the victim's p99 — recorded production traffic behaves
// like the synthetic writers in `testdata/qos_isolation.golden` — and pins
// the per-policy table byte-for-byte.
func TestQoSIsolationTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full multi-queue policy sweep over a replayed trace")
	}
	cfg, set := qosTraceScenario(t)
	var b strings.Builder
	fmt.Fprintf(&b, "# noisy neighbor (MSR trace aggressor): %s\n", FormatTenants(set))
	fmt.Fprintf(&b, "%-8s %14s %14s %12s %14s %10s\n",
		"policy", "victim-p99-us", "victim-p50-us", "victim-MB/s", "aggressor-MB/s", "fairness")
	victimP99 := map[QoSPolicy]float64{}
	for _, policy := range []QoSPolicy{PolicyRR, PolicyWRR, PolicyPrio} {
		set.Policy = policy
		res, err := Point{Config: cfg, Tenants: set.Tenants, Policy: set.Policy, Mode: ModeFull}.Run(nil)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		victim, agg := res.Tenants[0], res.Tenants[1]
		victimP99[policy] = victim.AllLat.P99US
		if agg.Completed != 2400 {
			t.Errorf("%v: aggressor replayed %d of 2400 trace requests", policy, agg.Completed)
		}
		fmt.Fprintf(&b, "%-8v %14.1f %14.1f %12.1f %14.1f %10.3f\n",
			policy, victim.AllLat.P99US, victim.AllLat.P50US, victim.MBps, agg.MBps, res.Fairness)
	}
	if victimP99[PolicyWRR] >= victimP99[PolicyRR] {
		t.Errorf("wrr victim p99 %.1f not strictly below rr %.1f", victimP99[PolicyWRR], victimP99[PolicyRR])
	}
	if victimP99[PolicyPrio] >= victimP99[PolicyRR] {
		t.Errorf("prio victim p99 %.1f not strictly below rr %.1f", victimP99[PolicyPrio], victimP99[PolicyRR])
	}
	goldenCompare(t, "qos_isolation_trace.golden", b.String())
}
