package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/nvme"
	"repro/internal/telemetry/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// noisyNeighborSet is the canonical QoS scenario: a latency-sensitive
// random reader (the victim, high class and heavy WRR weight) sharing a
// tight command window with three throughput-hungry sequential writers
// that keep it saturated. Round-robin gives the victim one dispatch in
// four; class- and weight-aware arbitration serve its backlog first.
func noisyNeighborSet(policy nvme.Policy, scale int) nvme.TenantSet {
	base := workload.Spec{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
	victim := base
	victim.Pattern = trace.RandRead
	victim.Requests = 300 * scale
	set := nvme.TenantSet{
		Policy: policy,
		Tenants: []nvme.Tenant{
			{Name: "victim", Class: nvme.ClassHigh, Weight: 9, Depth: 4, Workload: victim},
		},
	}
	for _, name := range []string{"noisy0", "noisy1", "noisy2"} {
		noisy := base
		noisy.Pattern = trace.SeqWrite
		noisy.Requests = 400 * scale
		noisy.Seed = base.Seed + uint64(len(set.Tenants))
		set.Tenants = append(set.Tenants, nvme.Tenant{
			Name: name, Class: nvme.ClassLow, Weight: 1, Depth: 8, Workload: noisy,
		})
	}
	return set
}

func runQoS(t *testing.T, policy nvme.Policy, scale int) Result {
	t.Helper()
	cfg := config.Default()
	cfg.QueueDepth = 8          // a tight shared window makes arbitration the bottleneck
	cfg.CachePolicy = "nocache" // writes hold window slots for their flash time
	res, err := runTenantWorkload(cfg, noisyNeighborSet(policy, scale), ModeFull)
	if err != nil {
		t.Fatalf("%v run: %v", policy, err)
	}
	return res
}

// TestNoisyNeighborIsolation is the tenant-isolation acceptance check:
// under a noisy-neighbor scenario, priority (and weighted) arbitration must
// yield a strictly lower victim p99 than plain round-robin, because the
// victim's head-of-queue commands stop waiting behind the writer's backlog.
func TestNoisyNeighborIsolation(t *testing.T) {
	scale := 1
	if !testing.Short() {
		scale = 3
	}
	rr := runQoS(t, nvme.PolicyRR, scale)
	wrr := runQoS(t, nvme.PolicyWRR, scale)
	prio := runQoS(t, nvme.PolicyPrio, scale)

	victim := func(r Result) TenantResult {
		if len(r.Tenants) != 4 || r.Tenants[0].Name != "victim" {
			t.Fatalf("tenant results malformed: %+v", r.Tenants)
		}
		return r.Tenants[0]
	}
	vRR, vWRR, vPrio := victim(rr), victim(wrr), victim(prio)
	if vRR.AllLat.Ops == 0 || vPrio.AllLat.Ops == 0 {
		t.Fatal("victim recorded no operations")
	}
	if vPrio.AllLat.P99US >= vRR.AllLat.P99US {
		t.Errorf("priority arbitration did not isolate the victim: p99 prio %.1fus >= rr %.1fus",
			vPrio.AllLat.P99US, vRR.AllLat.P99US)
	}
	if vWRR.AllLat.P99US > vRR.AllLat.P99US {
		t.Errorf("wrr made the victim worse than rr: p99 wrr %.1fus > rr %.1fus",
			vWRR.AllLat.P99US, vRR.AllLat.P99US)
	}
	// The isolation readout: the victim's queued stage (arbitration wait)
	// is where the policies differ.
	if vPrio.Stages.Queued.MeanUS >= vRR.Stages.Queued.MeanUS {
		t.Errorf("priority arbitration did not cut the victim's queued stage: prio %.1fus >= rr %.1fus",
			vPrio.Stages.Queued.MeanUS, vRR.Stages.Queued.MeanUS)
	}
}

// TestTenantResultInvariants checks the per-tenant accounting adds up.
func TestTenantResultInvariants(t *testing.T) {
	res := runQoS(t, nvme.PolicyRR, 1)
	set := noisyNeighborSet(nvme.PolicyRR, 1)

	var ops uint64
	for i, tr := range res.Tenants {
		want := uint64(set.Tenants[i].Workload.Requests)
		if tr.Completed != want {
			t.Errorf("tenant %s completed %d of %d", tr.Name, tr.Completed, want)
		}
		if tr.AllLat.Ops != want {
			t.Errorf("tenant %s recorded %d latencies, want %d", tr.Name, tr.AllLat.Ops, want)
		}
		// Stage means must sum to the end-to-end mean per tenant (the
		// watermark-attribution invariant, now per queue).
		if diff := math.Abs(tr.Stages.SumMeanUS() - tr.AllLat.MeanUS); diff > 0.5 {
			t.Errorf("tenant %s stage means sum %.2f != mean %.2f", tr.Name, tr.Stages.SumMeanUS(), tr.AllLat.MeanUS)
		}
		if tr.Slowdown < 1 {
			t.Errorf("tenant %s slowdown %.3f < 1", tr.Name, tr.Slowdown)
		}
		ops += tr.AllLat.Ops
	}
	// The drive-level distribution is exactly the union of the tenants'.
	if res.AllLat.Ops != ops {
		t.Errorf("drive-level ops %d != sum of tenant ops %d", res.AllLat.Ops, ops)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness %v outside (0,1]", res.Fairness)
	}
	if res.Completed != ops {
		t.Errorf("completed %d != tenant ops %d", res.Completed, ops)
	}
	// The victim has the shallow queue; its inflight peak must respect it.
	if got := res.Tenants[0].InflightPeak; got > 4 {
		t.Errorf("victim inflight peak %d exceeds its depth bound 4", got)
	}
}

// TestTenantPhaseWindows checks per-tenant measured-window resets: a tenant
// whose workload preconditions then records must report only the measured
// phase, while its neighbour (no phases) reports everything — resets are
// per queue, not global.
func TestTenantPhaseWindows(t *testing.T) {
	base := workload.Spec{BlockSize: 4096, SpanBytes: 1 << 25, Seed: 3}
	phased, err := workload.ParsePhases("200xSW;150xRR,record", base)
	if err != nil {
		t.Fatal(err)
	}
	plain := base
	plain.Pattern = trace.SeqWrite
	plain.Requests = 500
	set := nvme.TenantSet{
		Policy: nvme.PolicyRR,
		Tenants: []nvme.Tenant{
			{Name: "phased", Workload: phased},
			{Name: "plain", Workload: plain},
		},
	}
	res, err := runTenantWorkload(config.Default(), set, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tenants[0].AllLat.Ops; got != 150 {
		t.Errorf("phased tenant measured %d ops, want the 150 recorded ones", got)
	}
	if got := res.Tenants[0].ReadLat.Ops; got != 150 {
		t.Errorf("phased tenant measured %d reads, want 150", got)
	}
	if got := res.Tenants[1].AllLat.Ops; got != 500 {
		t.Errorf("plain tenant measured %d ops, want all 500", got)
	}
	if res.Tenants[0].Completed != 350 {
		t.Errorf("phased tenant completed %d, want 350", res.Tenants[0].Completed)
	}
}

// TestJainFairness pins the index's range behaviour.
func TestJainFairness(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{5, 5, 5}, 1},
		{[]float64{1, 0}, 0.5},
		{[]float64{4, 0, 0, 0}, 0.25},
	}
	for _, c := range cases {
		if got := JainFairness(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainFairness(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRunTenantsRejectsDrainMode pins the mode restriction.
func TestRunTenantsRejectsDrainMode(t *testing.T) {
	if _, err := runTenantWorkload(config.Default(), noisyNeighborSet(nvme.PolicyRR, 1), ModeDDRFlash); err == nil {
		t.Error("ddr+flash mode must reject multi-queue scenarios")
	}
}

// TestTenantSQDepthGauges: with metrics enabled, a tenant run exposes
// exactly one live submission-queue depth series per tenant, and every
// queue reads empty once the run has drained.
func TestTenantSQDepthGauges(t *testing.T) {
	cfg := config.Default()
	cfg.QueueDepth = 8
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	p.EnableMetrics(reg)
	set := noisyNeighborSet(nvme.PolicyWRR, 1)
	if _, err := p.RunTenants(set, ModeFull); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, tn := range set.Tenants {
		want = append(want, fmt.Sprintf("ssdx_sq_depth{tenant=%q}", tn.Name))
	}
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "ssdx_sq_depth") {
			got = append(got, name)
			if v != 0 {
				t.Errorf("%s = %v after the drain, want 0", name, v)
			}
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SQ depth series %v, want one per tenant %v", got, want)
	}
}
