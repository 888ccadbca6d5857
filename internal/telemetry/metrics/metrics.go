// Package metrics is the simulator's live runtime metrics layer: a
// lightweight registry of named atomic counters, gauges and histograms with
// Prometheus text exposition and a JSON snapshot. Where the sibling trace
// package answers "what did each modeled resource do over simulated time",
// metrics answers "what is this *process* doing right now" — how many design
// points a sweep has evaluated, how fast the kernels are burning events, how
// deep each tenant's submission queue sits — so a long run can be watched
// from a status endpoint while it executes.
//
// The package follows the same nil-check hook pattern as the event tracer:
// every method is safe on a nil receiver, and a nil *Registry hands out nil
// metrics, so instrumented hot paths carry exactly one pointer test per hook
// and stay 0 allocs/op when metrics are off. All metrics are atomics: a
// status server on another goroutine reads them without locks and without
// perturbing the simulation.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing uint64 metric. The zero value is
// ready to use; all methods are nil-safe no-ops.
//
//ssdx:nilhook
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 metric that can go up and down. The zero value is ready
// to use; all methods are nil-safe no-ops.
//
//ssdx:nilhook
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric. Buckets hold observations
// less than or equal to their upper bound (Prometheus `le` semantics); one
// implicit +Inf bucket catches the rest. The zero value is unusable — build
// through Registry.Histogram — but all methods are nil-safe.
//
//ssdx:nilhook
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefBuckets is the default histogram bucket layout (seconds-oriented).
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor (e.g. ExpBuckets(1, 2, 10) = 1,2,4,...,512).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// kind discriminates registered metric types.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	funcKind
	histKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case funcKind:
		return "gauge" // computed gauges expose as gauges
	case histKind:
		return "histogram"
	}
	return "?"
}

// entry is one registered metric series.
type entry struct {
	name   string // full series name, labels included
	family string // name with the {label} block stripped
	labels string // the {...} block without braces ("" when unlabeled)
	help   string
	kind   kind

	c *Counter
	g *Gauge
	f func() float64
	h *Histogram
}

// Registry is a set of named metrics. A nil *Registry hands out nil metrics
// (whose methods are no-ops), so a single nil check at setup time turns a
// whole instrumentation layer off. Series names are unique: registering a
// name twice with the same kind returns the original metric (wiring from
// several workers converges on shared counters), registering it with a
// different kind panics — a name must never change meaning mid-run.
//
//ssdx:nilhook
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry
	famKind map[string]kind
	entries []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry), famKind: make(map[string]kind)}
}

// splitName separates "family{label="v"}" into family and label block. An
// invalid name (bad characters, unterminated label block) panics: metric
// names are compile-time constants and a typo should fail loudly at wiring
// time, not corrupt the exposition.
func splitName(name string) (family, labels string) {
	brace := strings.IndexByte(name, '{')
	family = name
	if brace >= 0 {
		if !strings.HasSuffix(name, "}") || brace == 0 {
			panic(fmt.Sprintf("metrics: malformed series name %q", name))
		}
		family = name[:brace]
		labels = name[brace+1 : len(name)-1]
		if labels == "" {
			panic(fmt.Sprintf("metrics: empty label block in %q", name))
		}
	}
	for i := 0; i < len(family); i++ {
		ch := family[i]
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(ch >= '0' && ch <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
	if family == "" {
		panic("metrics: empty metric name")
	}
	return family, labels
}

// register installs (or finds) a series, enforcing name/kind uniqueness. A
// new series gets its metric here, under the lock, so concurrent
// registrations of one name all receive the same pointer. bounds applies to
// a new histogram only (nil selects DefBuckets).
func (r *Registry) register(name, help string, k kind, bounds []float64) *entry {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, k, e.kind))
		}
		return e
	}
	if fk, ok := r.famKind[family]; ok && fk != k {
		panic(fmt.Sprintf("metrics: family %q re-registered as %s (was %s)", family, k, fk))
	}
	e := &entry{name: name, family: family, labels: labels, help: help, kind: k}
	switch k {
	case counterKind:
		e.c = &Counter{}
	case gaugeKind:
		e.g = &Gauge{}
	case histKind:
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not strictly ascending", name))
			}
		}
		e.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	r.byName[name] = e
	r.famKind[family] = k
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or returns the existing) counter series. Nil registry
// returns a nil counter — the metric equivalent of "off".
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, counterKind, nil).c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, gaugeKind, nil).g
}

// GaugeFunc registers a computed gauge: fn is evaluated at every exposition
// and snapshot. fn must be safe for concurrent calls. Re-registering the
// same name replaces the function (the latest closure wins — a re-run sweep
// re-binds its live monitor).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil GaugeFunc for %q", name))
	}
	e := r.register(name, help, funcKind, nil)
	r.mu.Lock()
	e.f = fn
	r.mu.Unlock()
}

// Histogram registers (or returns the existing) histogram series. bounds
// must be sorted ascending; nil selects DefBuckets. Bounds are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, histKind, bounds).h
}

// sorted returns the entries ordered by (family, series name) — the stable
// exposition order. Families group so HELP/TYPE headers emit exactly once.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].name < out[j].name
	})
	return out
}

// series renders "family{labels,extra}" merging the entry's own labels with
// an extra label pair (used for histogram `le`).
func (e *entry) series(extra string) string {
	switch {
	case e.labels == "" && extra == "":
		return e.family
	case e.labels == "":
		return e.family + "{" + extra + "}"
	case extra == "":
		return e.family + "{" + e.labels + "}"
	default:
		return e.family + "{" + e.labels + "," + extra + "}"
	}
}

// fmtFloat renders a float in the exposition format (integers without
// exponent noise, +Inf as Prometheus spells it).
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format, ordered by (family, series) so consecutive scrapes of
// an unchanged registry are byte-identical. Nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFam := ""
	for _, e := range r.sorted() {
		if e.family != lastFam {
			if e.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.family, e.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.family, e.kind)
			lastFam = e.family
		}
		switch e.kind {
		case counterKind:
			fmt.Fprintf(&b, "%s %d\n", e.series(""), e.c.Value())
		case gaugeKind:
			fmt.Fprintf(&b, "%s %d\n", e.series(""), e.g.Value())
		case funcKind:
			fmt.Fprintf(&b, "%s %s\n", e.series(""), fmtFloat(e.f()))
		case histKind:
			cum := uint64(0)
			for i, bound := range e.h.bounds {
				cum += e.h.counts[i].Load()
				fmt.Fprintf(&b, "%s %d\n", e.series(fmt.Sprintf("le=%q", fmtFloat(bound))), cum)
			}
			cum += e.h.counts[len(e.h.bounds)].Load()
			fmt.Fprintf(&b, "%s %d\n", e.series(`le="+Inf"`), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.family, braced(e.labels), fmtFloat(e.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.family, braced(e.labels), e.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps a non-empty label block back in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Snapshot returns every series as a flat name → value map, JSON-friendly
// (Go marshals map keys sorted, so the snapshot is stable too). Histograms
// expand to <name>_count and <name>_sum. Nil registry returns an empty map.
//
//ssdx:export
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return map[string]float64{}
	}
	out := make(map[string]float64)
	for _, e := range r.sorted() {
		switch e.kind {
		case counterKind:
			out[e.name] = float64(e.c.Value())
		case gaugeKind:
			out[e.name] = float64(e.g.Value())
		case funcKind:
			out[e.name] = e.f()
		case histKind:
			out[e.family+"_count"+braced(e.labels)] = float64(e.h.Count())
			out[e.family+"_sum"+braced(e.labels)] = e.h.Sum()
		}
	}
	return out
}
