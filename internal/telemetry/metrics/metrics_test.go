package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises every hook on nil receivers and a nil registry —
// the "metrics off" configuration instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge reported a value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram reported observations")
	}

	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	r.GaugeFunc("x", "", nil) // must not panic on nil registry
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestNilRegistryHandler pins Handler's own nil guard: the returned handler
// must serve an empty exposition without touching the nil receiver.
func TestNilRegistryHandler(t *testing.T) {
	var r *Registry
	h := r.Handler()
	if h == nil {
		t.Fatal("nil registry Handler returned nil")
	}
	rec := &recorder{header: make(http.Header)}
	h.ServeHTTP(rec, nil)
	if rec.body.Len() != 0 {
		t.Fatalf("nil registry served a body: %q", rec.body.String())
	}
	if ct := rec.header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("nil registry handler Content-Type = %q", ct)
	}
}

// recorder is a minimal http.ResponseWriter for handler tests.
type recorder struct {
	header http.Header
	body   strings.Builder
	code   int
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) WriteHeader(code int) { r.code = code }

// TestPrometheusExposition pins the text format: HELP/TYPE once per family,
// label blocks preserved, histogram buckets cumulative with +Inf, and the
// whole body byte-identical across repeated scrapes (stable ordering).
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of exposition order.
	r.Counter("zz_last_total", "the last family").Add(7)
	r.Gauge(`ssdx_sq_depth{tenant="victim"}`, "per-tenant SQ depth").Set(3)
	r.Gauge(`ssdx_sq_depth{tenant="aggressor"}`, "per-tenant SQ depth").Set(12)
	h := r.Histogram("aa_seconds", "first family", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	r.GaugeFunc("mid_rate", "a computed gauge", func() float64 { return 2.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP aa_seconds first family
# TYPE aa_seconds histogram
aa_seconds{le="0.1"} 1
aa_seconds{le="1"} 2
aa_seconds{le="10"} 2
aa_seconds{le="+Inf"} 3
aa_seconds_sum 100.55
aa_seconds_count 3
# HELP mid_rate a computed gauge
# TYPE mid_rate gauge
mid_rate 2.5
# HELP ssdx_sq_depth per-tenant SQ depth
# TYPE ssdx_sq_depth gauge
ssdx_sq_depth{tenant="aggressor"} 12
ssdx_sq_depth{tenant="victim"} 3
# HELP zz_last_total the last family
# TYPE zz_last_total counter
zz_last_total 7
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Stable ordering: a second scrape must be byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Fatal("second scrape differed from the first")
	}
}

// TestRegistryUniqueness pins the registry's name rules: same name + kind
// converges on one metric, same name + different kind panics, and a family
// cannot change kind across label values.
func TestRegistryUniqueness(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "")
	b := r.Counter("dup_total", "")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("converged counters do not share state")
	}

	mustPanic(t, "kind conflict on identical name", func() { r.Gauge("dup_total", "") })
	r.Gauge(`fam{l="a"}`, "")
	mustPanic(t, "kind conflict across label values of one family", func() { r.Counter(`fam{l="b"}`, "") })
	mustPanic(t, "malformed name", func() { r.Counter("bad{unterminated", "") })
	mustPanic(t, "empty label block", func() { r.Counter("bad{}", "") })
	mustPanic(t, "invalid character", func() { r.Counter("bad name", "") })
	mustPanic(t, "leading digit", func() { r.Counter("9bad", "") })
	mustPanic(t, "unsorted histogram bounds", func() { r.Histogram("hist", "", []float64{1, 1}) })
	mustPanic(t, "nil GaugeFunc", func() { r.GaugeFunc("fn", "", nil) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestSnapshot checks the flat JSON view, including histogram expansion.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(-2)
	h := r.Histogram("h_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	r.GaugeFunc("f", "", func() float64 { return 1.25 })

	snap := r.Snapshot()
	want := map[string]float64{
		"c_total": 3, "g": -2, "f": 1.25,
		"h_seconds_count": 2, "h_seconds_sum": 2.5,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d series, want %d: %v", len(snap), len(want), snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestExpBuckets pins the exponential helper and its argument checks.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	mustPanic(t, "non-positive start", func() { ExpBuckets(0, 2, 3) })
}

// TestStartStatus boots the status server on :0 and checks all three
// endpoint families respond.
func TestStartStatus(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "liveness").Inc()
	srv, addr, err := StartStatus("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := body("/metrics"); !strings.Contains(got, "up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", got)
	}
	var snap map[string]float64
	if err := json.Unmarshal([]byte(body("/progress")), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if snap["up_total"] != 1 {
		t.Fatalf("/progress snapshot = %v", snap)
	}
	if got := body("/debug/pprof/cmdline"); got == "" {
		t.Fatal("/debug/pprof/cmdline returned empty body")
	}
}

// TestHistogramConcurrency hammers one histogram from several goroutines so
// the race detector can check the CAS sum loop, then verifies totals.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", []float64{0.5})
	const goroutines, per = 8, 1000
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				h.Observe(0.25)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if want := float64(goroutines*per) * 0.25; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

// TestRegistryConcurrentRegistration registers the same counter, gauge and
// histogram from several goroutines at once, as dse workers wiring their
// platforms to one registry do: every goroutine must get the same metric
// and every update must land in it. Each goroutine makes a single registry
// call per kind, so nothing but the registry's own lock orders the
// goroutines' first registrations.
func TestRegistryConcurrentRegistration(t *testing.T) {
	const goroutines, per = 8, 100
	concurrently := func(fn func(g int)) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				fn(g)
			}(g)
		}
		close(start)
		wg.Wait()
	}
	r := NewRegistry()
	var (
		counters [goroutines]*Counter
		gauges   [goroutines]*Gauge
		hists    [goroutines]*Histogram
	)
	concurrently(func(g int) {
		counters[g] = r.Counter("reg_total", "")
		counters[g].Add(per)
	})
	concurrently(func(g int) {
		gauges[g] = r.Gauge("reg_gauge", "")
		gauges[g].Add(per)
	})
	concurrently(func(g int) {
		hists[g] = r.Histogram("reg_seconds", "", []float64{1})
		for i := 0; i < per; i++ {
			hists[g].Observe(0.5)
		}
	})
	for g := 1; g < goroutines; g++ {
		if counters[g] != counters[0] || gauges[g] != gauges[0] || hists[g] != hists[0] {
			t.Fatalf("goroutine %d got a different metric instance", g)
		}
	}
	const total = goroutines * per
	if counters[0].Value() != total || gauges[0].Value() != total || hists[0].Count() != total {
		t.Fatalf("counter %d, gauge %d, histogram %d; want %d each",
			counters[0].Value(), gauges[0].Value(), hists[0].Count(), total)
	}
}
