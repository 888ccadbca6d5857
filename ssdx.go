// Package ssdx is the public API of the SSDExplorer reproduction: a virtual
// platform for fine-grained design space exploration of solid state drives
// (Zuolo et al., DATE 2014). It assembles mixed-abstraction models of every
// SSD component — an ARM7-class CPU running a firmware cost model (or a real
// ARMv4-subset firmware routine), an AMBA AHB interconnect, channel/way
// controllers with ONFI-style NAND dies, DDR2 DRAM buffers, SATA II / NVMe
// host interfaces, BCH ECC and a GZIP-class compressor — into one
// deterministic discrete-event simulation, and measures the performance
// breakdown columns the paper's evaluation is built on.
//
// Quick start:
//
//	cfg := ssdx.VertexConfig()
//	w, _ := ssdx.NewWorkload("SW", 4096, 1<<28, 12000)
//	res, _ := ssdx.Run(cfg, w, ssdx.ModeFull)
//	fmt.Println(res)
package ssdx

import (
	"context"
	"io"
	"net/http"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/nvme"
	"repro/internal/telemetry"
	"repro/internal/telemetry/metrics"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is a complete platform description (topology, host interface, NAND
// profile, buffer policy, ECC, compressor, FTL abstraction, CPU).
type Config = config.Platform

// Workload declares a streaming workload: the paper's synthetic IOZone
// patterns plus mixed read/write ratios, zipfian/hotspot address skew,
// open-loop arrival processes, multi-phase scenarios and trace replay.
type Workload = workload.Spec

// Generator is the pull-based request stream a Workload compiles to.
type Generator = workload.Generator

// Skew selects the address distribution of a synthetic workload.
type Skew = workload.Skew

// Arrival selects the arrival process of a synthetic workload.
type Arrival = workload.Arrival

// LatencyStats is one op class's latency summary (µs) in a Result.
type LatencyStats = workload.LatStats

// StageBreakdown attributes command latency to pipeline stages (queued,
// wire, CPU, DRAM, chan, NAND, ECC) in a Result — the paper's breakdown
// philosophy applied to the latency path. Stage means sum to the
// end-to-end mean.
type StageBreakdown = telemetry.Breakdown

// Stage identifies one pipeline stage of a StageBreakdown.
type Stage = telemetry.Stage

// PhaseProfile is one workload phase's latency/stage profile in a Result —
// kept for every phase (preconditions included), so multi-phase scenarios
// report each phase's stage breakdown, not only the last measured window's.
type PhaseProfile = telemetry.PhaseProfile

// Stages lists every pipeline stage in order (for iterating a
// StageBreakdown via ByStage).
func Stages() []Stage { return telemetry.Stages() }

// Result is the outcome of one simulated run.
type Result = core.Result

// Mode selects the measurement column (full SSD, host-ideal, host+DDR,
// DDR+flash).
type Mode = core.Mode

// Measurement modes (the paper's breakdown columns).
const (
	ModeFull      = core.ModeFull
	ModeHostIdeal = core.ModeHostIdeal
	ModeHostDDR   = core.ModeHostDDR
	ModeDDRFlash  = core.ModeDDRFlash
)

// WorkloadPattern is an IOZone-style access pattern (SW, SR, RW, RR).
type WorkloadPattern = trace.Pattern

// Pattern aliases for workload construction.
const (
	SeqWrite  = trace.SeqWrite
	SeqRead   = trace.SeqRead
	RandWrite = trace.RandWrite
	RandRead  = trace.RandRead
)

// DefaultConfig returns the baseline exploration platform (4 channels,
// 2 ways, 4 dies, SATA II, conservative MLC timing).
func DefaultConfig() Config { return config.Default() }

// VertexConfig returns the OCZ-Vertex-like validation platform used by the
// paper's Fig. 2 comparison.
func VertexConfig() Config { return config.Vertex() }

// TableII returns the ten design points of the paper's Table II (Figs. 3/4).
func TableII() []Config { return config.TableII() }

// TableIII returns the eight simulation-speed points of Table III (Fig. 6).
func TableIII() []Config { return config.TableIII() }

// Preset resolves a named configuration: "default", "vertex", "t2:C6",
// "t3:C2", ...
func Preset(name string) (Config, error) { return config.Preset(name) }

// LoadConfig parses a key = value platform file (see Config.Render for the
// format).
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return config.Parse(f)
}

// NewWorkload builds a workload from a pattern name (SW, SR, RW, RR), block
// size, span and request count.
func NewWorkload(pattern string, blockBytes, spanBytes int64, requests int) (Workload, error) {
	p, err := trace.ParsePattern(pattern)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{
		Pattern:   p,
		BlockSize: blockBytes,
		SpanBytes: spanBytes,
		Requests:  requests,
		Seed:      1,
	}
	return w, w.Validate()
}

// ParseSkew decodes "uniform", "zipf:<theta>" or "hotspot:<frac>:<prob>".
func ParseSkew(s string) (Skew, error) { return workload.ParseSkew(s) }

// ParseArrival decodes "closed", "poisson:<iops>" or
// "onoff:<iops>:<on_ms>:<off_ms>".
func ParseArrival(s string) (Arrival, error) { return workload.ParseArrival(s) }

// ParsePhases decodes a multi-phase scenario like
// "4000xSW;8000xRR,skew=zipf:0.9,record" — semicolon-separated phases of
// <requests>x<pattern> with block/span/mix/skew/arrival/seed/record
// options. base supplies block size, span and seed defaults. Phases marked
// record form the measured window; unmarked phases (e.g. preconditioning)
// are excluded from every reported statistic.
func ParsePhases(s string, base Workload) (Workload, error) { return workload.ParsePhases(s, base) }

// FormatPhases renders a phased workload back into the ParsePhases syntax.
func FormatPhases(w Workload) string { return workload.FormatPhases(w) }

// NewGenerator compiles a workload into its pull-based request stream (the
// same phase chain Run plays), for callers that write a trace file or drive
// their own player.
func NewGenerator(w Workload) (Generator, error) { return w.Generator() }

// Run builds a fresh platform from cfg and executes the workload in the
// given measurement mode. Platforms are single-use; Run hides that.
func Run(cfg Config, w Workload, mode Mode) (Result, error) {
	return core.RunWorkload(cfg, w, mode)
}

// Platform is a compiled simulation instance: single-use, with component
// access and opt-in instruments (EnableTracing, EnableMetrics).
type Platform = core.Platform

// Build exposes the underlying platform for callers that need component
// access (examples inspect utilizations; tests inject faults).
func Build(cfg Config) (*Platform, error) { return core.Build(cfg) }

// ParseTraceFile loads a host I/O trace in the canonical text format.
func ParseTraceFile(path string) ([]trace.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f)
}

// WriteTraceFile writes requests as a trace file.
func WriteTraceFile(path string, reqs []trace.Request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.Write(f, reqs)
}

// TraceInfo is the result of a streaming trace pre-scan.
type TraceInfo = workload.TraceInfo

// ScanTraceFile streams through a trace file once (constant memory) and
// classifies it for replay: write-address randomness (WAF) and the read
// extent to preload. Feed the results into Workload{TracePath, SpanBytes,
// ReplaySeqWrites, ReplayNoReads} for streaming replay in any measurement
// mode.
func ScanTraceFile(path string) (TraceInfo, error) { return workload.ScanTrace(path) }

// RunTrace executes an explicit request list (e.g. a parsed trace file)
// against a platform configuration in ModeFull.
func RunTrace(cfg Config, reqs []trace.Request) (Result, error) {
	p, err := core.Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.RunRequests(reqs)
}

// --- multi-queue host interface (tenant-aware QoS) --------------------------
//
// The nvme layer is the NVMe-style front end: N submission/completion queue
// pairs, namespaces partitioning the LBA space, and pluggable arbitration
// (round robin, weighted round robin with an urgent class, strict
// priority). Each queue binds its own workload, so one scenario runs a
// latency-sensitive tenant next to a throughput-hungry one and measures the
// isolation.

// Tenant is one submission queue and the client behind it: name, weight,
// priority class, outstanding bound and workload.
type Tenant = nvme.Tenant

// TenantSet is a complete multi-queue scenario (tenants + arbitration).
type TenantSet = nvme.TenantSet

// QoSPolicy selects the arbitration mechanism between submission queues.
type QoSPolicy = nvme.Policy

// QoSClass is an NVMe-style priority class (low, medium, high, urgent).
type QoSClass = nvme.Class

// Arbitration policies.
const (
	PolicyRR   = nvme.PolicyRR
	PolicyWRR  = nvme.PolicyWRR
	PolicyPrio = nvme.PolicyPrio
)

// TenantResult is one tenant's share of a multi-queue run's Result.
type TenantResult = core.TenantResult

// ParseTenants decodes the multi-tenant DSL, e.g.
// "victim@high:6000xRR | noisy*4:20000xSW,arrival=poisson:50000" — tenants
// separated by '|', each "<name>[@class][*weight][#depth]:<phases>" with
// the phases in the ParsePhases syntax. base supplies block/span/seed
// defaults.
func ParseTenants(s string, base Workload) (TenantSet, error) { return nvme.ParseTenants(s, base) }

// FormatTenants renders a tenant set back into the ParseTenants syntax.
func FormatTenants(set TenantSet) string { return nvme.FormatTenants(set) }

// ParseQoSPolicy decodes "rr", "wrr" or "prio".
func ParseQoSPolicy(s string) (QoSPolicy, error) { return nvme.ParsePolicy(s) }

// RunTenants builds a fresh platform from cfg and executes the multi-queue
// scenario in the given measurement mode. The Result carries per-tenant
// latency/stage breakdowns, slowdowns and Jain's fairness index.
func RunTenants(cfg Config, set TenantSet, mode Mode) (Result, error) {
	return core.RunTenantWorkload(cfg, set, mode)
}

// JainFairness computes Jain's fairness index over arbitrary shares.
func JainFairness(xs []float64) float64 { return core.JainFairness(xs) }

// --- design-space exploration ----------------------------------------------
//
// The dse engine is the paper's headline workflow made first-class: describe
// a parameter space, evaluate every point on a parallel worker pool with
// content-hash result caching, and extract the Pareto-optimal designs.

// Space describes a Cartesian design space over platform, workload and
// measurement-mode axes.
type Space = dse.Space

// Point is one evaluable design point of a Space.
type Point = dse.Point

// Eval is the outcome of evaluating one Point.
type Eval = dse.Eval

// Runner evaluates design points on a goroutine worker pool.
type Runner = dse.Runner

// Cache memoises evaluations by content hash so overlapping sweeps are
// incremental.
type Cache = dse.Cache

// Objective is one optimisation direction for Pareto analysis.
type Objective = dse.Objective

// NewCache returns an empty result cache.
func NewCache() *Cache { return dse.NewCache() }

// LoadResultCache opens a cache file written by Cache.Save, returning an
// empty cache if the file does not exist yet.
func LoadResultCache(path string) (*Cache, error) { return dse.LoadCache(path) }

// ParseObjectives resolves a comma-separated objective list such as
// "mbps,latency,waf".
func ParseObjectives(spec string) ([]Objective, error) { return dse.ParseObjectives(spec) }

// ParetoFront returns the non-dominated evaluations under the objectives.
func ParetoFront(evals []Eval, objs []Objective) []Eval { return dse.Front(evals, objs) }

// ParetoRanks assigns each evaluation its dominance depth (0 = front).
func ParetoRanks(evals []Eval, objs []Objective) []int { return dse.Ranks(evals, objs) }

// SortByParetoRank orders evaluations by dominance rank, best designs
// first; failed evaluations sort last.
func SortByParetoRank(evals []Eval, objs []Objective) []Eval {
	return dse.SortByRank(evals, objs)
}

// WriteSweepCSV renders evaluations as one flat CSV table.
func WriteSweepCSV(w io.Writer, evals []Eval) error { return dse.WriteCSV(w, evals) }

// WriteSweepJSON renders evaluations (with dominance ranks under the
// objectives) as an indented JSON report.
func WriteSweepJSON(w io.Writer, evals []Eval, objs []Objective) error {
	return dse.WriteJSON(w, evals, objs)
}

// Explore enumerates the space and evaluates every point on workers
// goroutines (<= 0 selects one per core). It is the one-call sweep used by
// cmd/explore; callers needing caching, sampling, progress or cancellation
// compose a Runner directly.
func Explore(ctx context.Context, s Space, workers int) ([]Eval, error) {
	r := &Runner{Workers: workers}
	return r.RunSpace(ctx, s)
}

// --- device-wide event tracing ----------------------------------------------
//
// The telemetry/trace layer records busy/idle intervals on every modeled
// resource (NAND dies per op kind, ONFI buses, DRAM, ECC, CPU, AHB, host
// link, per-tenant submission queues), aggregates them into fixed-memory
// utilization timelines, and optionally keeps a bounded raw event buffer
// that exports as Chrome trace-event JSON openable in ui.perfetto.dev.
// Tracing is off by default and costs nothing when off; enable it per
// platform with Platform.EnableTracing.

// TraceOptions configures device-wide event tracing (raw event capture
// on/off, event cap, timeline bin count).
type TraceOptions = evtrace.Options

// Tracer records busy intervals and queue depths across the platform.
type Tracer = evtrace.Tracer

// UtilizationReport is the aggregated tracing outcome carried in
// Result.Utilization: per-resource busy fractions and op mixes, the die×time
// heatmap, GC share of die busy time, and the simulator self-profile.
type UtilizationReport = evtrace.Report

// ResourceUtil is one resource's row of a UtilizationReport.
type ResourceUtil = evtrace.ResourceUtil

// TraceRun builds a platform, enables tracing with raw event capture, runs
// the workload and returns both the result (carrying Result.Utilization) and
// the tracer, ready for Tracer.WritePerfetto.
func TraceRun(cfg Config, w Workload, mode Mode) (Result, *Tracer, error) {
	p, err := core.Build(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	tr := p.EnableTracing(TraceOptions{Events: true})
	res, err := p.Run(w, mode)
	return res, tr, err
}

// TraceRunTenants is TraceRun for a multi-queue tenant scenario.
func TraceRunTenants(cfg Config, set TenantSet, mode Mode) (Result, *Tracer, error) {
	p, err := core.Build(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	tr := p.EnableTracing(TraceOptions{Events: true})
	res, err := p.RunTenants(set, mode)
	return res, tr, err
}

// --- fleet observability -----------------------------------------------------
//
// The telemetry/metrics layer is the wall-clock counterpart of event tracing:
// live counters/gauges/histograms over the running *process* (events/sec,
// sweep progress, per-tenant SQ depth) exported in Prometheus text format and
// as a JSON snapshot, plus a structured JSONL run journal so long sweeps are
// auditable and resumable. Metrics are off by default and cost nothing when
// off; enable per platform with Platform.EnableMetrics or per sweep with
// Runner.Metrics.

// MetricsRegistry is a set of named live metrics with Prometheus text
// exposition (WritePrometheus/Handler) and a flat JSON Snapshot. A nil
// registry hands out nil metrics whose methods are no-ops.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty live-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ServeStatus binds addr (":0" picks a port; the bound address is returned)
// and serves /metrics (Prometheus), /progress (the given handler, or the
// registry snapshot as JSON when nil) and /debug/pprof in the background.
// The caller owns shutdown via the returned server's Close.
func ServeStatus(addr string, reg *MetricsRegistry, progress http.Handler) (*http.Server, string, error) {
	return metrics.StartStatus(addr, reg, progress)
}

// SweepMonitor tracks a sweep's live progress — completion counts, points
// per second, ETA and the streaming partial Pareto front — and serves it as
// the /progress JSON document (it implements http.Handler).
type SweepMonitor = dse.Monitor

// SweepProgress is the JSON document a SweepMonitor serves.
type SweepProgress = dse.ProgressReport

// NewSweepMonitor builds a monitor for a sweep of total points ranked under
// the objectives. Feed it from Runner.OnProgress via Observe.
func NewSweepMonitor(total int, objs []Objective) *SweepMonitor { return dse.NewMonitor(total, objs) }

// RunManifest is a run journal's sealed provenance header: module version,
// base-config content hash, seed, space size and objectives, plus a hash
// over those fields that readers re-derive.
type RunManifest = dse.Manifest

// RunJournal is an append-only JSONL run log: one manifest line, then one
// line per evaluation (point key, objectives, cached/pruned flags, wall
// time), flushed per record.
type RunJournal = dse.Journal

// JournalEntry is one evaluation record of a RunJournal.
type JournalEntry = dse.JournalEntry

// NewRunManifest assembles (and seals) the manifest for a sweep of pts
// drawn from s, stamped with this module's Version.
func NewRunManifest(s Space, pts []Point, objs []Objective) RunManifest {
	return dse.NewManifest(s, pts, Version, objs)
}

// CreateRunJournal opens (truncates) path and writes the manifest header.
func CreateRunJournal(path string, m RunManifest, objs []Objective) (*RunJournal, error) {
	return dse.CreateJournal(path, m, objs)
}

// ReadRunJournal parses a journal, verifying the manifest seal.
func ReadRunJournal(path string) (RunManifest, []JournalEntry, error) {
	return dse.ReadJournal(path)
}

// JournalCompletedKeys extracts the successfully-evaluated point keys from
// journal entries — the resumability set (keys match the result cache's).
func JournalCompletedKeys(entries []JournalEntry) map[string]bool {
	return dse.CompletedKeys(entries)
}

// Version identifies the reproduction release. 1.8.0 removed the
// ssdx-bench/v1 report API (BenchReport, BenchSchema, MeasureBench,
// MeasureBenchRows, CompareBench, WriteBenchJSON, ReadBenchJSON,
// LoadBenchJSON); the ssdx-bench/v2 benchmark in cmd/ssdxbench replaces it.
// 1.9.0 removed the sharded core's worker pool with its knobs
// (SimulationSpeedRows, SpeedRow.Parallel/Workers, the parallel_workers and
// parallel_lookahead_ns config keys, Config.ParallelLookaheadNS); the
// sharded core now runs on the calling goroutine.
const Version = "1.9.0"
