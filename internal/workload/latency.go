package workload

import (
	"math/bits"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Histogram is a log-linear latency histogram (HDR-style): each value lands
// in a power-of-two band split into 32 linear sub-buckets, bounding the
// relative quantile error at ~3% with O(1) record cost and fixed memory —
// no per-request slab, whatever the stream length. Mean and max are exact.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    sim.Time
	max    sim.Time
}

const (
	histSubBits = 5 // 32 sub-buckets per power of two
	histSub     = 1 << histSubBits
	// 63-histSubBits exponent bands plus the exact low range.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int((v >> uint(exp-histSubBits)) & (histSub - 1))
	return histSub + (exp-histSubBits)*histSub + sub
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	idx -= histSub
	exp := idx/histSub + histSubBits
	sub := int64(idx % histSub)
	lo := int64(1)<<uint(exp) + sub<<uint(exp-histSubBits)
	return lo + int64(1)<<uint(exp-histSubBits)/2
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(int64(d))]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge folds other's observations into h (bucket-exact: merging then
// querying equals recording every observation into one histogram).
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Mean returns the exact mean observation.
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Quantile returns the q-quantile (0 <= q <= 1) to within the bucket
// resolution; the top bucket reports the exact maximum.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n-1))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			mid := bucketMid(i)
			if sim.Time(mid) > h.max {
				return h.max
			}
			return sim.Time(mid)
		}
	}
	return h.max
}

// Stats summarises the distribution in microseconds.
func (h *Histogram) Stats() LatStats {
	if h.n == 0 {
		return LatStats{}
	}
	return LatStats{
		Ops:    h.n,
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
		P999US: h.Quantile(0.999).Microseconds(),
		MaxUS:  h.max.Microseconds(),
	}
}

// LatStats is one op class's latency summary in microseconds — the per-op
// figures exported by every sweep.
type LatStats struct {
	Ops    uint64  `json:"ops"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// Collector accumulates per-op-class command latency: reads and writes get
// their own distributions (their service paths differ completely), and the
// combined distribution covers every op including trims and flushes.
type Collector struct {
	read  Histogram
	write Histogram
	all   Histogram
}

// Record adds one completed command's latency under its op class.
func (c *Collector) Record(op trace.Op, d sim.Time) {
	switch op {
	case trace.OpRead:
		c.read.Record(d)
	case trace.OpWrite:
		c.write.Record(d)
	}
	c.all.Record(d)
}

// Merge folds other's distributions into c (the multi-queue host interface
// merges per-tenant collectors into the drive-level view).
func (c *Collector) Merge(other *Collector) {
	c.read.Merge(&other.read)
	c.write.Merge(&other.write)
	c.all.Merge(&other.all)
}

// Read summarises read-command latency.
func (c *Collector) Read() LatStats { return c.read.Stats() }

// Write summarises write-command latency.
func (c *Collector) Write() LatStats { return c.write.Stats() }

// All summarises latency across every op class.
func (c *Collector) All() LatStats { return c.all.Stats() }
