package dse

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallSpace is a real-simulation space small enough for unit tests: eight
// points covering topology, host interface and pattern axes.
func smallSpace() Space {
	return Space{
		Channels:  []int{1, 2},
		HostIF:    []string{"sata2", "pcie-g2x8"},
		Patterns:  []trace.Pattern{trace.SeqWrite, trace.SeqRead},
		SpanBytes: 1 << 26,
		Requests:  300,
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation comparison in -short mode")
	}
	pts, err := smallSpace().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	seqRunner := &Runner{Workers: 1}
	seq, err := seqRunner.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	parRunner := &Runner{Workers: 8}
	par, err := parRunner.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a := Normalize(seq[i].Result)
		b := Normalize(par[i].Result)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("point %d: parallel result differs from sequential:\nseq: %+v\npar: %+v", i, a, b)
		}
	}
}

func TestRunnerPreservesInputOrder(t *testing.T) {
	var pts []Point
	s := Space{}
	base, err := s.At(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		pt := base
		pt.Index = int64(i)
		pts = append(pts, pt)
	}
	r := &Runner{
		Workers: 16,
		Evaluate: func(pt Point) (core.Result, error) {
			return core.Result{MBps: float64(pt.Index)}, nil
		},
	}
	evals, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evals {
		if ev.Result.MBps != float64(i) {
			t.Fatalf("eval %d holds result for point %v", i, ev.Result.MBps)
		}
	}
}

func TestRunnerSweepsHundredPointSpace(t *testing.T) {
	s := Space{
		Channels:   []int{1, 2, 4},
		Ways:       []int{1, 2, 4},
		DiesPerWay: []int{1, 2, 4},
		HostIF:     []string{"sata2", "pcie-g2x8"},
		ECCScheme:  []string{"none", "fixed"},
	}
	if s.Size() < 100 {
		t.Fatalf("fixture space too small: %d", s.Size())
	}
	var sims atomic.Int64
	r := &Runner{
		Workers: 8,
		Evaluate: func(pt Point) (core.Result, error) {
			sims.Add(1)
			return core.Result{MBps: float64(pt.Config.Channels * pt.Config.Ways)}, nil
		},
	}
	evals, err := r.RunSpace(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(evals)) != s.Size() || sims.Load() != s.Size() {
		t.Fatalf("swept %d points with %d evaluations, want %d", len(evals), sims.Load(), s.Size())
	}
}

func TestRunnerRecordsPerPointErrors(t *testing.T) {
	s := Space{Channels: []int{1, 2, 4}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Workers: 2,
		Evaluate: func(pt Point) (core.Result, error) {
			if pt.Config.Channels == 2 {
				return core.Result{}, errors.New("boom")
			}
			return core.Result{MBps: 1}, nil
		},
	}
	evals, err := r.Run(context.Background(), pts)
	if err == nil {
		t.Fatal("aggregate error not reported")
	}
	if len(evals) != 3 {
		t.Fatalf("got %d evals", len(evals))
	}
	if !evals[1].Failed() || evals[0].Failed() || evals[2].Failed() {
		t.Errorf("failure not attributed to the right point: %+v", evals)
	}
}

// TestRunnerRecoversPanickingPoint pins that a panic in one evaluation on
// the worker goroutine fails that point alone: it reads as Eval.Err, counts
// as failed and lands in the journal, and the other points still succeed.
// The probe variant panics in the saturation probe, which must not be
// retried as a full run.
func TestRunnerRecoversPanickingPoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prune bool
	}{{"full", false}, {"probe", true}} {
		t.Run(tc.name, func(t *testing.T) {
			pts, err := Space{Channels: []int{1, 2, 4}}.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			const quota = 100
			for i := range pts {
				pts[i].Workload.Requests = 5000
				pts[i].Workload.Arrival = workload.Arrival{Kind: workload.ArrivalPoisson, RateIOPS: 1000}
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			j, err := CreateJournal(path, NewManifest(Space{}, pts, "test", nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			var faultyCalls atomic.Int64
			r := &Runner{
				Workers:        2,
				Metrics:        reg,
				PruneSaturated: tc.prune,
				WarmupRequests: quota,
				Evaluate: func(pt Point) (core.Result, error) {
					if pt.Config.Channels == 2 {
						faultyCalls.Add(1)
						var nilMap map[string]int
						nilMap["boom"]++ // a real runtime fault, not a panic(string)
					}
					return core.Result{MBps: 1}, nil
				},
				OnProgress: func(done, total int, ev Eval) {
					if err := j.Record(ev); err != nil {
						t.Errorf("record: %v", err)
					}
				},
			}
			evals, err := r.Run(context.Background(), pts)
			if err == nil || !strings.Contains(err.Error(), "1 of 3 evaluations failed") {
				t.Fatalf("aggregate error %v, want one failed point", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			for i, ev := range evals {
				if faulty := i == 1; faulty != ev.Failed() || (!faulty && ev.Result.MBps != 1) {
					t.Errorf("eval %d (channels %d): %+v", i, ev.Point.Config.Channels, ev)
				}
			}
			if !strings.HasPrefix(evals[1].Err, "panic: ") || !strings.Contains(evals[1].Err, "nil map") {
				t.Errorf("panicking point's error %q", evals[1].Err)
			}
			if n := faultyCalls.Load(); n != 1 {
				t.Errorf("panicking point evaluated %d times, want 1", n)
			}
			if got := reg.Snapshot()["ssdx_dse_evals_failed_total"]; got != 1 {
				t.Errorf("failed counter %v, want 1", got)
			}
			_, entries, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, e := range entries {
				if e.Err != "" {
					failed++
					if e.Key != pts[1].Key() || e.Err != evals[1].Err {
						t.Errorf("journal failure entry %+v, want point 1 with %q", e, evals[1].Err)
					}
				}
			}
			if len(entries) != 3 || failed != 1 {
				t.Fatalf("journal holds %d entries with %d failures, want 3 with 1", len(entries), failed)
			}
		})
	}
}

func TestRunnerCancellation(t *testing.T) {
	s := Space{Channels: []int{1, 2, 4, 8}, Ways: []int{1, 2, 4, 8}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	r := &Runner{
		Workers: 1,
		Evaluate: func(pt Point) (core.Result, error) {
			if ran.Add(1) == 2 {
				cancel()
			}
			return core.Result{}, nil
		},
	}
	evals, err := r.Run(ctx, pts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not surfaced: %v", err)
	}
	if ran.Load() >= int64(len(pts)) {
		t.Errorf("all %d points ran despite cancellation", len(pts))
	}
	// Points never handed to a worker must read as failed, not as
	// zero-valued successes that would pollute Pareto fronts and exports.
	unfed := 0
	for i, ev := range evals {
		if ev.Point.Config.Name == "" {
			t.Fatalf("eval %d lost its point", i)
		}
		if !ev.Failed() {
			continue
		}
		unfed++
		if ev.Err != "not evaluated: sweep cancelled" {
			t.Errorf("eval %d error = %q", i, ev.Err)
		}
	}
	if unfed == 0 {
		t.Error("no evals marked unevaluated after cancellation")
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	s := Space{Channels: []int{1, 2, 4}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	r := &Runner{
		Workers:  4,
		Evaluate: func(pt Point) (core.Result, error) { return core.Result{}, nil },
		OnProgress: func(done, total int, ev Eval) {
			calls = append(calls, fmt.Sprintf("%d/%d", done, total))
		},
	}
	if _, err := r.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	want := []string{"1/3", "2/3", "3/3"}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("progress calls %v, want %v", calls, want)
	}
}
