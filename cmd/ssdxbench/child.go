package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
)

// sweepWorkers is the dse.Runner pool size of the sweep workload.
const sweepWorkers = 2

// childRecord is what one workload process reports to the parent, as the
// last line of its standard output.
type childRecord struct {
	Workload string             `json:"workload"`
	Digest   string             `json:"digest,omitempty"`
	Err      string             `json:"err,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans,omitempty"`
}

// runChild runs one workload in this process and prints its record. Each
// sample gets a fresh process so that every sample pays the set-up a CLI
// user pays and starts from an empty heap.
func runChild(name string, seed uint64, scale float64, layers bool, epoch int64) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 2
	}
	// End-to-end samples run untraced; the per-layer pass records spans.
	var rec *recorder
	if layers {
		rec = &recorder{epoch: time.Unix(0, epoch)}
	}
	out := childRecord{Workload: name}
	switch {
	case layers && w.sweep != nil:
		out.Metrics, err = layersSweep(w.sweep(seed, scale), rec)
	case layers:
		out.Metrics, err = layersSingle(w.single(seed, scale*w.layerScale), rec)
	case w.sweep != nil:
		out.Metrics, out.Digest, err = sampleSweep(w.sweep(seed, scale), rec)
	default:
		out.Metrics, out.Digest, err = sampleSingle(w.single(seed, scale), rec)
	}
	if err != nil {
		out.Err = err.Error()
	}
	if rec != nil {
		out.Spans = rec.spans
	}
	data, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench: encode record:", merr)
		return 2
	}
	fmt.Println(string(data))
	return 0
}

// checkCompleted verifies that every command of the run completed.
func checkCompleted(res core.Result, requests int) error {
	if res.Completed != uint64(requests) {
		return fmt.Errorf("completed %d of %d commands", res.Completed, requests)
	}
	return nil
}

// sampleSingle times one Build and one full-SSD run of the inputs.
func sampleSingle(r singleRun, rec *recorder) (map[string]float64, string, error) {
	end := rec.begin("core.Build", "setup", "")
	t0 := time.Now()
	p, err := core.Build(r.cfg)
	setup := time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, "", err
	}
	// Start every run from the same heap state. Whether a collection of
	// Build's garbage lands inside the run otherwise depends on GC pacing,
	// and on t3c8 one such collection moves the run time by about 10 %.
	runtime.GC()
	end = rec.begin("run ssd", "sim", "")
	t1 := time.Now()
	res, err := r.run(p, core.ModeFull)
	runS := time.Since(t1).Seconds()
	end()
	if err != nil {
		return nil, "", err
	}
	if err := checkCompleted(res, r.requests()); err != nil {
		return nil, "", err
	}
	digest, err := digestResults([]core.Result{res}, []string{""})
	if err != nil {
		return nil, "", err
	}
	return map[string]float64{
		"setup_s":       setup,
		"sim_req_per_s": float64(res.Completed) / runS,
		"points_per_s":  1 / (setup + runS),
	}, digest, nil
}

// timedEval is a dse.Runner evaluator that times Build and the run of every
// point separately. Each index is written by the one worker evaluating it
// and read after Runner.Run returns.
type timedEval struct {
	build, run []float64
	rec        *recorder
}

func (t *timedEval) evaluate(pt dse.Point) (core.Result, error) {
	end := t.rec.beginWorker(fmt.Sprintf("eval %d %s %v", pt.Index, pt.Config.Name, pt.Mode), "dse", "sweep")
	defer end()
	t0 := time.Now()
	p, err := core.Build(pt.Config)
	t.build[pt.Index] = time.Since(t0).Seconds()
	if err != nil {
		return core.Result{}, err
	}
	t1 := time.Now()
	var res core.Result
	if len(pt.Tenants) > 0 {
		res, err = p.RunTenants(pt.TenantSet(), pt.Mode)
	} else {
		res, err = p.Run(pt.Workload, pt.Mode)
	}
	t.run[pt.Index] = time.Since(t1).Seconds()
	return res, err
}

// sweepRun is one timed sweep.
type sweepRun struct {
	evals []dse.Eval
	te    *timedEval
	wall  float64
}

func runSweep(pts []dse.Point, rec *recorder) (sweepRun, error) {
	te := &timedEval{build: make([]float64, len(pts)), run: make([]float64, len(pts)), rec: rec}
	runner := &dse.Runner{Workers: sweepWorkers, Evaluate: te.evaluate}
	end := rec.begin("dse.Runner.Run", "dse", "")
	t0 := time.Now()
	evals, err := runner.Run(context.Background(), pts)
	wall := time.Since(t0).Seconds()
	end()
	if err != nil {
		return sweepRun{}, err
	}
	for _, ev := range evals {
		if err := checkCompleted(ev.Result, ev.Point.Workload.TotalRequests()); err != nil {
			return sweepRun{}, fmt.Errorf("point %d: %w", ev.Point.Index, err)
		}
	}
	return sweepRun{evals: evals, te: te, wall: wall}, nil
}

// sampleSweep times one whole sweep.
func sampleSweep(pts []dse.Point, rec *recorder) (map[string]float64, string, error) {
	sr, err := runSweep(pts, rec)
	if err != nil {
		return nil, "", err
	}
	results := make([]core.Result, len(sr.evals))
	errs := make([]string, len(sr.evals))
	var completed uint64
	var setup, runS float64
	for i, ev := range sr.evals {
		results[i], errs[i] = ev.Result, ev.Err
		completed += ev.Result.Completed
		setup += sr.te.build[i]
		runS += sr.te.run[i]
	}
	digest, err := digestResults(results, errs)
	if err != nil {
		return nil, "", err
	}
	return map[string]float64{
		"setup_s":       setup,
		"sim_req_per_s": float64(completed) / runS,
		"points_per_s":  float64(len(pts)) / sr.wall,
	}, digest, nil
}
