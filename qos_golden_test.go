package ssdx

import (
	"fmt"
	"strings"
	"testing"
)

// qosScenario is the committed noisy-neighbor scenario: one high-priority,
// heavy-weight random reader against three sequential writers behind a
// tight shared command window with a no-cache buffer policy (writes hold
// their window slot for the full flash program, so arbitration decides the
// victim's fate).
func qosScenario(t *testing.T) (Config, TenantSet) {
	t.Helper()
	base := Workload{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
	set, err := ParseTenants(
		"victim@high*9#4:900xRR | noisy0@low:1200xSW | noisy1@low:1200xSW,seed=8 | noisy2@low:1200xSW,seed=9",
		base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	cfg.CachePolicy = "nocache"
	return cfg, set
}

// TestQoSIsolationGolden is the tenant-isolation acceptance artifact: it
// sweeps the arbitration policy over the committed noisy-neighbor scenario,
// asserts WRR and strict priority strictly beat round robin on the victim's
// p99, and pins the full per-policy table byte-for-byte as a golden file.
// The simulator is deterministic, so any diff is a real behaviour change.
func TestQoSIsolationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full multi-queue policy sweep")
	}
	cfg, set := qosScenario(t)
	var b strings.Builder
	fmt.Fprintf(&b, "# noisy neighbor: %s\n", FormatTenants(set))
	fmt.Fprintf(&b, "%-8s %14s %14s %12s %10s %10s\n",
		"policy", "victim-p99-us", "victim-p50-us", "victim-MB/s", "noisy-MB/s", "fairness")
	victimP99 := map[QoSPolicy]float64{}
	for _, policy := range []QoSPolicy{PolicyRR, PolicyWRR, PolicyPrio} {
		set.Policy = policy
		res, err := Point{Config: cfg, Tenants: set.Tenants, Policy: set.Policy, Mode: ModeFull}.Run(nil)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		victim := res.Tenants[0]
		victimP99[policy] = victim.AllLat.P99US
		var noisy float64
		for _, tr := range res.Tenants[1:] {
			noisy += tr.MBps
		}
		fmt.Fprintf(&b, "%-8v %14.1f %14.1f %12.1f %10.1f %10.3f\n",
			policy, victim.AllLat.P99US, victim.AllLat.P50US, victim.MBps, noisy, res.Fairness)
	}
	if victimP99[PolicyWRR] >= victimP99[PolicyRR] {
		t.Errorf("wrr victim p99 %.1f not strictly below rr %.1f", victimP99[PolicyWRR], victimP99[PolicyRR])
	}
	if victimP99[PolicyPrio] >= victimP99[PolicyRR] {
		t.Errorf("prio victim p99 %.1f not strictly below rr %.1f", victimP99[PolicyPrio], victimP99[PolicyRR])
	}
	goldenCompare(t, "qos_isolation.golden", b.String())
}
