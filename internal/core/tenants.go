package core

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/hostif"
	"repro/internal/nvme"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TenantResult is one tenant's share of a multi-queue run: its own latency
// distributions, stage attribution and throughput, plus the isolation
// figures (slowdown against the best-served tenant) that the QoS sweeps
// rank on.
type TenantResult struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	Class  string `json:"class"`

	MBps         float64 `json:"mbps"`
	Completed    uint64  `json:"completed"`
	InflightPeak int     `json:"inflight_peak"`

	// SQDepthMean/SQDepthPeak summarize the tenant's submission-queue depth
	// timeline (time-weighted). Zero mean unless the run traced events.
	SQDepthMean float64 `json:"sq_depth_mean,omitempty"`
	SQDepthPeak int     `json:"sq_depth_peak,omitempty"`

	ReadLat  workload.LatStats `json:"read_lat"`
	WriteLat workload.LatStats `json:"write_lat"`
	AllLat   workload.LatStats `json:"all_lat"`

	// Stages attributes the tenant's command latency to pipeline stages —
	// the queued stage is where arbitration shows up, so per-tenant queued
	// time is the direct readout of how the policy treated the tenant.
	Stages telemetry.Breakdown `json:"stages"`

	// Phases carries the tenant's per-phase latency/stage profiles when its
	// workload declares multiple phases (empty otherwise), mirroring
	// Result.Phases on the single-stream path.
	Phases []telemetry.PhaseProfile `json:"phases,omitempty"`

	// Slowdown is the tenant's mean latency divided by the best-served
	// tenant's mean latency (>= 1; 1 for the best-served tenant itself).
	Slowdown float64 `json:"slowdown"`
}

// JainFairness returns Jain's fairness index over the given shares:
// (Σx)² / (n·Σx²), 1 when all shares are equal, approaching 1/n when one
// share dominates. Zero shares are kept (a starved tenant is unfairness,
// not a missing sample); an empty or all-zero input returns 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunTenants executes a multi-tenant scenario: every tenant streams its own
// workload through a private submission queue into its namespace partition,
// and the set's arbitration policy shares the device between them. The
// result carries the drive-level figures plus per-tenant breakdowns,
// slowdown and Jain's fairness index over weight-normalised throughput.
// The platform is single-use, exactly as with Run.
func (p *Platform) RunTenants(set nvme.TenantSet, mode Mode) (Result, error) {
	if err := set.Validate(); err != nil {
		return Result{}, err
	}
	if mode == ModeDDRFlash {
		return Result{}, errors.New("core: ddr+flash drain mode cannot run multi-queue scenarios")
	}
	// Replay tenants need no pre-scan: their declared namespaces are
	// preloaded eagerly below like every reading tenant's, and any read a
	// trace aims past its declared extent preloads on first touch, on the
	// die's owning domain.
	if err := p.prepare(set.HasReplay(), set.RandomWrites(), set.MayRead(), set.ReadSpan()); err != nil {
		return Result{}, err
	}
	q, err := set.Compile()
	if err != nil {
		return Result{}, err
	}
	defer q.Close()
	q.SetClock(func() float64 { return p.K.Now().Microseconds() })
	// Live WAF re-resolution (WAF-abstraction mode only; an explicit
	// override pins the value, the mapper FTL measures its own
	// amplification): when exactly one tenant writes and its generator
	// classifies its own stream — a replayed trace or a synthetic phase
	// chain — the drive-level write regime is that stream's regime, so the
	// windowed classification drives the model exactly as on the
	// single-stream path. Two or more writers stay pinned at the
	// conservative interleaved-random model set above.
	if p.mapper == nil && p.Cfg.WAFOverride == 0 {
		p.liveClass = q.SoleWriterClassification()
	}

	res, err := p.run(mode, set.Describe(), set.TotalRequests(), func() (Result, error) {
		return p.playHost(mode, func(handler func(*hostif.Command), onDrained func()) error {
			return p.Host.RunMulti(q, handler, onDrained)
		}, func() error {
			if serr := q.Err(); serr != nil {
				return fmt.Errorf("core: tenant stream: %w", serr)
			}
			return nil
		})
	})
	if err != nil {
		return res, err
	}
	res.Tenants = p.tenantResults(set)
	res.Fairness = fairnessOf(res.Tenants)
	return res, nil
}

// tenantResults reads back every queue's measured window from the host
// interface and computes the relative slowdowns.
func (p *Platform) tenantResults(set nvme.TenantSet) []TenantResult {
	out := make([]TenantResult, len(set.Tenants))
	minMean := 0.0
	for i, t := range set.Tenants {
		tr := TenantResult{
			Name:         t.Name,
			Weight:       t.NormWeight(),
			Class:        t.Class.String(),
			MBps:         p.Host.QueueThroughputMBps(i),
			Completed:    p.Host.QueueCompleted(i),
			InflightPeak: p.Host.QueueInflightPeak(i),
			ReadLat:      p.Host.QueueLatency(i).Read(),
			WriteLat:     p.Host.QueueLatency(i).Write(),
			AllLat:       p.Host.QueueLatency(i).All(),
			Stages:       p.Host.QueueStageBreakdown(i),
			Phases:       labeledPhases(p.Host.QueuePhaseProfiles(i), t.Workload.Phases),
		}
		tr.SQDepthMean, tr.SQDepthPeak = p.Host.QueueDepthStats(i)
		if tr.AllLat.Ops > 0 && (minMean == 0 || tr.AllLat.MeanUS < minMean) {
			minMean = tr.AllLat.MeanUS
		}
		out[i] = tr
	}
	for i := range out {
		if out[i].AllLat.Ops > 0 && minMean > 0 {
			out[i].Slowdown = out[i].AllLat.MeanUS / minMean
		}
	}
	return out
}

// fairnessOf computes Jain's index over weight-normalised tenant
// throughput: a policy is perfectly fair when every tenant's MB/s per unit
// of weight is equal.
func fairnessOf(tenants []TenantResult) float64 {
	xs := make([]float64, len(tenants))
	for i, t := range tenants {
		xs[i] = t.MBps / float64(t.Weight)
	}
	return JainFairness(xs)
}

// RunTenantWorkload is the one-shot convenience: build a platform from cfg
// and run the tenant scenario in the given mode.
func RunTenantWorkload(cfg config.Platform, set nvme.TenantSet, mode Mode) (Result, error) {
	p, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.RunTenants(set, mode)
}
