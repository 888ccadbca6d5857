package dse

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestWarmCacheResweepRunsZeroSimulations is the incremental-sweep
// guarantee: a second pass over the same space must be answered entirely
// from the cache.
func TestWarmCacheResweepRunsZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation sweep in -short mode")
	}
	s := Space{
		Channels:  []int{1, 2},
		Patterns:  []trace.Pattern{trace.SeqWrite, trace.SeqRead},
		SpanBytes: 1 << 26,
		Requests:  300,
	}
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int64
	cache := NewCache()
	r := &Runner{
		Workers: 4,
		Cache:   cache,
		Evaluate: func(pt Point) (core.Result, error) {
			sims.Add(1)
			return pt.Run(nil)
		},
	}
	cold, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != int64(len(pts)) {
		t.Fatalf("cold sweep ran %d simulations, want %d", sims.Load(), len(pts))
	}
	warm, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != int64(len(pts)) {
		t.Fatalf("warm sweep ran %d new simulations, want 0", sims.Load()-int64(len(pts)))
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Errorf("point %d not served from cache", i)
		}
		// Cached results carry the deterministic portion only — the
		// original run's wall-clock fields must not be replayed.
		if !reflect.DeepEqual(warm[i].Result, Normalize(cold[i].Result)) {
			t.Errorf("point %d: cached result differs from original", i)
		}
		if warm[i].Result.WallSeconds != 0 || warm[i].Result.KCPS != 0 {
			t.Errorf("point %d: cache replayed wall-clock fields", i)
		}
	}
	// An overlapping sweep only pays for the new points.
	wider := s
	wider.Channels = []int{1, 2, 4}
	wpts, err := wider.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), wpts); err != nil {
		t.Fatal(err)
	}
	if got, want := sims.Load(), int64(len(pts)+2); got != want {
		t.Errorf("overlapping sweep ran %d total simulations, want %d", got, want)
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	cache := NewCache()
	res := core.Result{Config: "p0001", MBps: 123.5, WAF: 1.25, Erases: 42, SimTime: 9999}
	cache.Put("k1", res)
	cache.Put("k2", core.Result{MBps: 7})
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := cache.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", loaded.Len())
	}
	got, ok := loaded.Get("k1")
	if !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, res)
	}
}

func TestLoadCacheMissingFileIsEmpty(t *testing.T) {
	c, err := LoadCache(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("missing file produced %d entries", c.Len())
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache()
	c.Put("a", core.Result{})
	c.Get("a")
	c.Get("b")
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}
