package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/telemetry/metrics"
)

// obsObjectives is a two-objective lens for the monitor/journal tests:
// maximise throughput, minimise p99.
func obsObjectives() []Objective {
	mbps, _ := ObjectiveByName("mbps")
	p99, _ := ObjectiveByName("p99")
	return []Objective{mbps, p99}
}

func resultWith(mbps, p99 float64) core.Result {
	var r core.Result
	r.MBps = mbps
	r.AllLat.P99US = p99
	return r
}

// TestMonitorStreamingFront feeds evaluations whose dominance structure is
// known and checks the incremental front matches the batch Front at every
// step, including eviction of newly-dominated members.
func TestMonitorStreamingFront(t *testing.T) {
	objs := obsObjectives()
	evs := []Eval{
		{Result: resultWith(100, 50)},             // A: joins
		{Result: resultWith(80, 60)},              // B: dominated by A, rejected
		{Result: resultWith(120, 40)},             // C: dominates A, evicts it
		{Result: resultWith(90, 10)},              // D: trades off with C, joins
		{Result: resultWith(50, 5), Pruned: true}, // probe verdict, excluded
		{Err: "boom"},                             // failure, excluded
	}
	m := NewMonitor(len(evs), objs)
	for i := range evs {
		evs[i].Point.Index = int64(i)
		m.Observe(evs[i])
	}
	rep := m.Report()
	if rep.Done != len(evs) || rep.Pruned != 1 || rep.Failed != 1 {
		t.Fatalf("report totals: %+v", rep)
	}
	if len(rep.Front) != 2 {
		t.Fatalf("front has %d members, want 2: %+v", len(rep.Front), rep.Front)
	}
	gotIdx := map[int64]bool{rep.Front[0].Index: true, rep.Front[1].Index: true}
	if !gotIdx[2] || !gotIdx[3] {
		t.Fatalf("front members %v, want indices 2 and 3", gotIdx)
	}
	for _, fe := range rep.Front {
		if fe.Objectives["mbps"] == 0 {
			t.Fatalf("front entry missing objective values: %+v", fe)
		}
	}
	// Cross-check against the batch extractor over the same surviving evals.
	batch := Front(evs[:4], objs)
	if len(batch) != len(rep.Front) {
		t.Fatalf("incremental front size %d != batch %d", len(rep.Front), len(batch))
	}
}

// TestJournalRoundTrip writes a journal through a real (stub-evaluated)
// sweep and reads it back: the manifest hash must re-derive, the entry
// count must match, and the keys must line up with the points' content
// hashes.
func TestJournalRoundTrip(t *testing.T) {
	s := Space{Channels: []int{1, 2}, Ways: []int{1, 2}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	objs := obsObjectives()
	man := NewManifest(s, pts, "test-1.0", objs)
	if man.Hash == "" || man.Hash != man.ComputeHash() {
		t.Fatalf("manifest not sealed: %+v", man)
	}
	if man.SpaceSize != 4 || man.Points != 4 || man.Schema != JournalSchema {
		t.Fatalf("manifest fields: %+v", man)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path, man, objs)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Workers: 2,
		Evaluate: func(pt Point) (core.Result, error) {
			if pt.Config.Channels == 2 && pt.Config.Ways == 2 {
				return core.Result{}, errors.New("synthetic failure")
			}
			return resultWith(float64(pt.Config.Channels*100), 42), nil
		},
		OnProgress: func(done, total int, ev Eval) {
			if err := j.Record(ev); err != nil {
				t.Errorf("record: %v", err)
			}
		},
	}
	if _, err := r.Run(context.Background(), pts); err == nil {
		t.Fatal("expected the synthetic failure to surface")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	gotMan, entries, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMan, man) {
		t.Fatalf("manifest round-trip: got %+v want %+v", gotMan, man)
	}
	if len(entries) != len(pts) {
		t.Fatalf("journal has %d entries, want %d", len(entries), len(pts))
	}
	wantKeys := make(map[string]bool, len(pts))
	for _, pt := range pts {
		wantKeys[pt.Key()] = true
	}
	failed := 0
	for _, e := range entries {
		if !wantKeys[e.Key] {
			t.Fatalf("entry key %s not a swept point", e.Key)
		}
		if e.Err != "" {
			failed++
			if e.Objectives != nil {
				t.Fatalf("failed entry carries objectives: %+v", e)
			}
			continue
		}
		if e.Objectives["p99"] != 42 {
			t.Fatalf("entry objectives: %+v", e)
		}
	}
	if failed != 1 {
		t.Fatalf("journal recorded %d failures, want 1", failed)
	}
	if done := CompletedKeys(entries); len(done) != len(pts)-1 {
		t.Fatalf("CompletedKeys = %d, want %d", len(done), len(pts)-1)
	}
}

// TestJournalRejectsCorruptManifest flips one manifest field on disk and
// checks the reader refuses the file.
func TestJournalRejectsCorruptManifest(t *testing.T) {
	s := Space{Channels: []int{1}}
	pts, _ := s.Enumerate()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path, NewManifest(s, pts, "test-1.0", nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"seed":7`, `"seed":8`, 1)
	if tampered == string(data) {
		t.Fatal("fixture did not contain the expected seed field")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "manifest hash") {
		t.Fatalf("tampered journal read error = %v, want manifest hash mismatch", err)
	}
}

// TestMetricsPreserveDeterminism pins the acceptance criterion that
// observability is read-only: the same fixed-seed points produce
// byte-identical (normalized) Results with the metrics layer on and off,
// on both the serial and parallel event cores.
func TestMetricsPreserveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation comparison in -short mode")
	}
	s := Space{
		Channels:  []int{2},
		HostIF:    []string{"sata2", "pcie-g2x8"},
		SpanBytes: 1 << 26,
		Requests:  300,
	}
	for _, parallel := range []bool{false, true} {
		sp := s
		sp.Base = config.Default()
		sp.Base.Parallel = parallel
		pts, err := sp.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		plain := &Runner{Workers: 2}
		base, err := plain.Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		mon := NewMonitor(len(pts), obsObjectives())
		path := filepath.Join(t.TempDir(), "run.jsonl")
		j, err := CreateJournal(path, NewManifest(sp, pts, "test", obsObjectives()), obsObjectives())
		if err != nil {
			t.Fatal(err)
		}
		observed := &Runner{
			Workers: 2,
			Metrics: metrics.NewRegistry(),
			OnProgress: func(done, total int, ev Eval) {
				if err := j.Record(ev); err != nil {
					t.Errorf("record: %v", err)
				}
				mon.Observe(ev)
			},
		}
		got, err := observed.Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range base {
			a, b := Normalize(base[i].Result), Normalize(got[i].Result)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("parallel=%v point %d: metrics changed the result", parallel, i)
			}
		}
		if _, entries, err := ReadJournal(path); err != nil || len(entries) != len(pts) {
			t.Fatalf("journal after observed sweep: %d entries, err %v", len(entries), err)
		}
	}
}

// TestRunnerMetrics checks the live counters a sweep exports: outcome
// counts, cache mirrors and wall-time stamping.
func TestRunnerMetrics(t *testing.T) {
	s := Space{Channels: []int{1, 2, 4}}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cache := NewCache()
	r := &Runner{
		Workers: 2,
		Cache:   cache,
		Metrics: reg,
		Evaluate: func(pt Point) (core.Result, error) {
			if pt.Config.Channels == 4 {
				return core.Result{}, errors.New("synthetic failure")
			}
			return resultWith(100, 10), nil
		},
	}
	if _, err := r.Run(context.Background(), pts); err == nil {
		t.Fatal("expected failure to surface")
	}
	snap := reg.Snapshot()
	if snap["ssdx_dse_evals_started_total"] != 3 || snap["ssdx_dse_evals_completed_total"] != 3 {
		t.Fatalf("started/completed: %v", snap)
	}
	if snap["ssdx_dse_evals_failed_total"] != 1 || snap["ssdx_dse_evals_cached_total"] != 0 {
		t.Fatalf("failed/cached: %v", snap)
	}
	if snap["ssdx_dse_cache_misses_total"] != 3 || snap["ssdx_dse_cache_hits_total"] != 0 {
		t.Fatalf("cache mirrors: %v", snap)
	}
	if snap["ssdx_dse_inflight_workers"] != 0 {
		t.Fatalf("inflight workers did not return to zero: %v", snap)
	}
	if snap["ssdx_dse_eval_seconds_count"] != 3 {
		t.Fatalf("eval histogram count: %v", snap)
	}

	// Second sweep over the same points: the two successes hit the cache.
	evals, _ := r.Run(context.Background(), pts)
	snap = reg.Snapshot()
	if snap["ssdx_dse_evals_cached_total"] != 2 || snap["ssdx_dse_cache_hits_total"] != 2 {
		t.Fatalf("second-sweep cache counters: %v", snap)
	}
	for _, ev := range evals {
		if ev.WallSeconds < 0 {
			t.Fatalf("negative wall time: %+v", ev)
		}
	}
}
