package workload

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Record(sim.Time(v))
	}
	if h.n != 32 || h.max != 31 {
		t.Fatalf("count %d max %v", h.n, h.max)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := h.Quantile(1); got != 31 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// A deterministic spread of values across several orders of magnitude:
	// histogram quantiles must track exact quantiles within the ~3% bucket
	// resolution.
	var h Histogram
	var vals []int64
	rng := sim.NewRNG(42)
	for i := 0; i < 50000; i++ {
		v := int64(rng.Intn(1 << 20))
		v = v * v / (1 << 18) // skew toward small values, tail to ~4M
		vals = append(vals, v)
		h.Record(sim.Time(v))
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(q*float64(len(vals)-1))])
		got := float64(h.Quantile(q))
		if exact == 0 {
			continue
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.05 {
			t.Fatalf("q%.3f = %v, exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
	// Mean is exact.
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if got, want := int64(h.Mean()), sum/int64(len(vals)); got != want {
		t.Fatalf("mean %d, want %d", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Stats() != (LatStats{}) {
		t.Fatalf("empty histogram not zero: %+v", h.Stats())
	}
}

func TestCollectorClasses(t *testing.T) {
	var c Collector
	c.Record(trace.OpRead, 100*sim.Microsecond)
	c.Record(trace.OpRead, 200*sim.Microsecond)
	c.Record(trace.OpWrite, 1000*sim.Microsecond)
	c.Record(trace.OpTrim, 10*sim.Microsecond)
	r, w, all := c.Read(), c.Write(), c.All()
	if r.Ops != 2 || w.Ops != 1 || all.Ops != 4 {
		t.Fatalf("ops %d/%d/%d", r.Ops, w.Ops, all.Ops)
	}
	if r.MeanUS < 140 || r.MeanUS > 160 {
		t.Fatalf("read mean %v", r.MeanUS)
	}
	if w.MaxUS < 990 || w.MaxUS > 1010 {
		t.Fatalf("write max %v", w.MaxUS)
	}
	if all.MaxUS != w.MaxUS {
		t.Fatalf("all max %v != write max %v", all.MaxUS, w.MaxUS)
	}
	if r.P99US < r.P50US {
		t.Fatalf("read p99 %v below p50 %v", r.P99US, r.P50US)
	}
}
