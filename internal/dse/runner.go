package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/telemetry/metrics"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/workload"
)

// Eval is the outcome of evaluating one Point. Results are deterministic
// functions of the point except for the wall-clock fields (WallSeconds,
// KCPS); compare evaluations with Normalize when determinism matters.
type Eval struct {
	Point  Point       `json:"point"`
	Result core.Result `json:"result"`
	Cached bool        `json:"cached"`
	// Pruned marks an open-loop point whose warm-up probe already diverged:
	// the Result covers only the probe run (saturation verdict, growth
	// rate), not the full request count — the full simulation was skipped.
	Pruned bool   `json:"pruned,omitempty"`
	Err    string `json:"err,omitempty"`
	// WallSeconds is how long this evaluation held a worker — near zero for
	// cache hits, the probe time for pruned points. Wall-clock only: it is
	// never part of the deterministic Result and never cached.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// Failed reports whether the evaluation errored.
func (e Eval) Failed() bool { return e.Err != "" }

// Normalize clears the wall-clock-dependent fields of a result so that two
// evaluations of the same point compare equal byte-for-byte regardless of
// scheduling, parallelism or host load.
func Normalize(res core.Result) core.Result {
	res.WallSeconds = 0
	res.KCPS = 0
	if res.Utilization != nil {
		// The report is a pointer: copy before stripping the self-profile's
		// wall-clock fields so the caller's result stays intact.
		rep := *res.Utilization
		rep.Profile.WallSeconds = 0
		rep.Profile.EventsPerSec = 0
		rep.Profile.SimNSPerWallMS = 0
		res.Utilization = &rep
	}
	return res
}

// Runner evaluates design points on a goroutine worker pool. The zero value
// runs the real simulator on every core with no cache.
type Runner struct {
	// Workers is the pool size; <= 0 selects runtime.NumCPU().
	Workers int

	// Cache, when set, short-circuits points whose content hash has
	// already been evaluated and records fresh results for future sweeps.
	Cache *Cache

	// Evaluate computes one point. nil selects the real simulator
	// (Point.Run). Tests and dry runs substitute stubs.
	Evaluate func(Point) (core.Result, error)

	// OnProgress, when set, is called after each completed evaluation with
	// the running completion count. Calls are serialised but arrive in
	// completion order, not index order.
	OnProgress func(done, total int, ev Eval)

	// PruneSaturated early-aborts open-loop points whose arrival backlog is
	// already diverging after a warm-up quota: the point runs with its
	// request counts capped at WarmupRequests, and if the fitted backlog
	// growth flags saturation the full simulation is skipped — the verdict
	// is clear after a few hundred arrivals, and the full run would only
	// report latencies that describe the run length. Pruned evaluations
	// carry the probe's Result with Pruned set and are never cached (the
	// probe is not the point).
	PruneSaturated bool

	// WarmupRequests is the probe quota (default 512 per stream).
	WarmupRequests int

	// Utilization runs every point with device-wide event tracing enabled
	// (aggregates only, no raw event buffer): results carry a
	// Result.Utilization report and the CSV export gains per-resource
	// utilization columns. Ignored when a custom Evaluate is set.
	Utilization bool

	// Metrics, when set, exports live sweep counters into the registry
	// (evals started/completed/cached/pruned/failed, in-flight workers,
	// per-eval wall time) and instruments the Cache and — on the default
	// evaluator — every platform it builds. Nil keeps every hook off.
	Metrics *metrics.Registry
}

// runnerMetrics bundles the Runner's live counters. The zero value (all nil
// fields) is the metrics-off configuration: every method call below is a
// nil-safe no-op.
type runnerMetrics struct {
	started   *metrics.Counter
	completed *metrics.Counter
	cached    *metrics.Counter
	pruned    *metrics.Counter
	failed    *metrics.Counter
	inflight  *metrics.Gauge
	evalSecs  *metrics.Histogram
}

func newRunnerMetrics(reg *metrics.Registry) runnerMetrics {
	if reg == nil {
		return runnerMetrics{}
	}
	return runnerMetrics{
		started:   reg.Counter("ssdx_dse_evals_started_total", "design-point evaluations handed to a worker"),
		completed: reg.Counter("ssdx_dse_evals_completed_total", "design-point evaluations finished (any outcome)"),
		cached:    reg.Counter("ssdx_dse_evals_cached_total", "evaluations short-circuited by the content-hash cache"),
		pruned:    reg.Counter("ssdx_dse_evals_pruned_total", "evaluations stopped at the saturation probe"),
		failed:    reg.Counter("ssdx_dse_evals_failed_total", "evaluations that returned an error"),
		inflight:  reg.Gauge("ssdx_dse_inflight_workers", "workers currently evaluating a design point"),
		evalSecs:  reg.Histogram("ssdx_dse_eval_seconds", "wall-clock seconds per simulated evaluation (cache hits excluded)", nil),
	}
}

// DefaultWarmupRequests is the pruning probe's per-stream request quota:
// comfortably past the saturation detector's minimum sample count, small
// against any real sweep's request budget.
const DefaultWarmupRequests = 512

// Run evaluates every point and returns the evaluations in input order —
// the same slice a sequential loop would produce, whatever the pool size.
// Per-point failures, including a panic in Evaluate on the worker
// goroutine, are recorded in Eval.Err; Run itself returns an error
// only for cancellation or to summarise how many points failed.
func (r *Runner) Run(ctx context.Context, pts []Point) ([]Eval, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	rm := newRunnerMetrics(r.Metrics)
	r.Cache.InstrumentMetrics(r.Metrics)
	evaluate := r.Evaluate
	if evaluate == nil {
		utilization := r.Utilization
		reg := r.Metrics
		setup := func(p *core.Platform) {
			if utilization {
				// Aggregates only: sweeps need busy fractions and GC shares,
				// not raw event buffers per point.
				p.EnableTracing(evtrace.Options{})
			}
			// Concurrent platforms share the registry's counters; registration
			// is idempotent so every worker converges on the same series.
			p.EnableMetrics(reg)
		}
		evaluate = func(pt Point) (core.Result, error) { return pt.Run(setup) }
	}

	evals := make([]Eval, len(pts))
	processed := make([]bool, len(pts))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done counter and OnProgress ordering
	done := 0

	worker := func() {
		defer wg.Done()
		for i := range jobs {
			processed[i] = true
			rm.started.Inc()
			rm.inflight.Add(1)
			begin := time.Now() //ssdx:wallclock
			ev := Eval{Point: pts[i]}
			key := ""
			if r.Cache != nil {
				key = pts[i].Key()
				if res, ok := r.Cache.Get(key); ok {
					ev.Result = res
					ev.Cached = true
				}
			}
			if !ev.Cached && r.PruneSaturated {
				if probe, ok := r.pruneProbe(pts[i]); ok {
					res, err := recoverEval(evaluate, probe)
					var perr evalPanic
					switch {
					case errors.As(err, &perr):
						// A faulty point: the full run would fault too.
						ev.Err = err.Error()
					case err == nil && res.Saturated:
						// Divergence is already established: report the
						// probe's verdict and skip the full simulation.
						// Never cached — the probe is not the point.
						ev.Result = res
						ev.Pruned = true
					}
				}
			}
			if !ev.Cached && !ev.Pruned && !ev.Failed() {
				res, err := recoverEval(evaluate, pts[i])
				if err != nil {
					ev.Err = err.Error()
				} else {
					ev.Result = res
					if r.Cache != nil {
						// Cache the deterministic portion only: a hit
						// must not replay the original run's wall-clock
						// timings as if they were measured now.
						r.Cache.Put(key, Normalize(res))
					}
				}
			}
			ev.WallSeconds = time.Since(begin).Seconds() //ssdx:wallclock
			rm.inflight.Add(-1)
			rm.completed.Inc()
			switch {
			case ev.Cached:
				rm.cached.Inc()
			case ev.Pruned:
				rm.pruned.Inc()
				rm.evalSecs.Observe(ev.WallSeconds)
			case ev.Failed():
				rm.failed.Inc()
				rm.evalSecs.Observe(ev.WallSeconds)
			default:
				rm.evalSecs.Observe(ev.WallSeconds)
			}
			evals[i] = ev
			if r.OnProgress != nil {
				mu.Lock()
				done++
				r.OnProgress(done, len(pts), ev)
				mu.Unlock()
			}
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	var cancelled error
feed:
	for i := range pts {
		select {
		case jobs <- i:
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled != nil {
		// Points never handed to a worker must not masquerade as
		// zero-valued successes: callers that keep partial sweeps (e.g.
		// cmd/explore) would rank and export them as real measurements.
		for i := range evals {
			if !processed[i] {
				evals[i] = Eval{Point: pts[i], Err: "not evaluated: sweep cancelled"}
			}
		}
		return evals, fmt.Errorf("dse: sweep cancelled: %w", cancelled)
	}
	failed := 0
	first := ""
	for _, ev := range evals {
		if ev.Failed() {
			failed++
			if first == "" {
				first = ev.Err
			}
		}
	}
	if failed > 0 {
		return evals, fmt.Errorf("dse: %d of %d evaluations failed (first: %s)", failed, len(pts), first)
	}
	return evals, nil
}

// evalPanic is a panic recovered from one evaluation.
type evalPanic struct{ v any }

func (e evalPanic) Error() string { return fmt.Sprintf("panic: %v", e.v) }

// recoverEval calls evaluate, turning a panic on the calling worker into an
// evalPanic error: one faulty design point fails alone, in Eval.Err and the
// journal, instead of killing the sweep. Panics on goroutines the
// evaluation starts itself are not recovered here.
func recoverEval(evaluate func(Point) (core.Result, error), pt Point) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = evalPanic{v}
		}
	}()
	return evaluate(pt)
}

// pruneProbe derives the warm-up probe for a point: the same design with
// every stream's request count capped at the warm-up quota. Only open-loop
// synthetic points qualify — saturation is an open-loop phenomenon, phased
// and replay workloads have no single request knob to cap, and a point
// already inside the quota gains nothing from probing.
func (r *Runner) pruneProbe(pt Point) (Point, bool) {
	quota := r.WarmupRequests
	if quota <= 0 {
		quota = DefaultWarmupRequests
	}
	plain := func(w workload.Spec) bool { return len(w.Phases) == 0 && w.TracePath == "" }
	if len(pt.Tenants) > 0 {
		ts := make([]nvme.Tenant, len(pt.Tenants))
		copy(ts, pt.Tenants)
		anyOpen, anyReduced := false, false
		for i := range ts {
			if !plain(ts[i].Workload) {
				return Point{}, false
			}
			anyOpen = anyOpen || ts[i].Workload.Arrival.Open()
			if ts[i].Workload.Requests > quota {
				ts[i].Workload.Requests = quota
				anyReduced = true
			}
		}
		if !anyOpen || !anyReduced {
			return Point{}, false
		}
		pt.Tenants = ts
		return pt, true
	}
	w := pt.Workload
	if !plain(w) || !w.Arrival.Open() || w.Requests <= quota {
		return Point{}, false
	}
	w.Requests = quota
	pt.Workload = w
	return pt, true
}

// RunSpace enumerates the space and evaluates every point.
func (r *Runner) RunSpace(ctx context.Context, s Space) ([]Eval, error) {
	pts, err := s.Enumerate()
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, pts)
}
