// Package dse is the design-space exploration engine of the reproduction —
// the layer that turns single-shot simulation into the paper's headline
// workflow: sweep a parameter space, evaluate every point, and extract the
// optimal designs. A Space describes the axes to sweep (topology, host
// interface, NAND timing, ECC, FTL abstraction, buffering, workload shape),
// a Runner evaluates points on a worker pool with result caching, and the
// Pareto helpers rank the outcomes under multiple objectives.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Space describes a Cartesian design space. Every axis left empty is pinned
// to the corresponding Base value, so a zero Space with a valid Base is a
// single point. Axis values are swept in the order given; the enumeration
// order is the mixed-radix count with the later-declared axes varying
// fastest, which makes point indices stable identifiers for a given Space.
type Space struct {
	// Base supplies every parameter that is not swept. A zero Base is
	// replaced by config.Default().
	Base config.Platform

	// Topology axes (the paper's Table II dimensions).
	Channels   []int
	Ways       []int
	DiesPerWay []int
	DDRBuffers []int

	// Component axes.
	HostIF      []string // "sata2", "pcie-g2x8", ...
	NANDProfile []string // "explore", "vertex"
	ECCScheme   []string // "none", "fixed", "adaptive"
	FTLMode     []string // "waf", "mapper"
	CachePolicy []string // "cache", "nocache"

	// Workload axes. Beyond the paper's pattern/block-size sweep, the
	// streaming workload subsystem exposes shape axes so sweeps explore
	// workload and hardware jointly: read/write mix, address skew and
	// arrival process.
	Patterns   []trace.Pattern
	BlockSizes []int64
	WriteFracs []float64          // write fraction of a mixed workload
	Skews      []workload.Skew    // uniform / zipf / hotspot addressing
	Arrivals   []workload.Arrival // closed / poisson / onoff arrivals

	// Multi-tenant axes. A non-empty TenantMixes axis switches the swept
	// points to the NVMe-style multi-queue front end: each mix is a full
	// tenant roster (per-queue workloads, weights, classes), evaluated via
	// core.RunTenantWorkload instead of the single-stream path, and the
	// Policies axis sweeps the arbitration mechanism across mixes. The
	// single-workload axes (Patterns, BlockSizes, ...) are ignored for
	// tenant points — each tenant already carries its own workload.
	TenantMixes [][]nvme.Tenant
	Policies    []nvme.Policy

	// Workload shape shared by every point.
	SpanBytes int64 // default 1 GiB
	Requests  int   // default 4000
	Seed      uint64

	// Modes to measure each configuration in (default ModeFull only).
	Modes []core.Mode
}

// axis is one resolved dimension of the space: a length and a setter that
// applies value i of the axis to a point under construction.
type axis struct {
	name  string
	size  int
	apply func(pt *Point, i int)
}

// defaults fills unset scalar fields.
func (s Space) defaults() Space {
	if s.Base.Name == "" && s.Base.Channels == 0 {
		s.Base = config.Default()
	}
	if s.SpanBytes == 0 {
		s.SpanBytes = 1 << 30
	}
	if s.Requests == 0 {
		s.Requests = 4000
	}
	if s.Seed == 0 {
		s.Seed = 7
	}
	return s
}

// axes resolves the swept dimensions in declaration order.
func (s Space) axes() []axis {
	var out []axis
	add := func(name string, n int, apply func(*Point, int)) {
		if n > 0 {
			out = append(out, axis{name, n, apply})
		}
	}
	add("channels", len(s.Channels), func(pt *Point, i int) { pt.Config.Channels = s.Channels[i] })
	add("ways", len(s.Ways), func(pt *Point, i int) { pt.Config.Ways = s.Ways[i] })
	add("dies", len(s.DiesPerWay), func(pt *Point, i int) { pt.Config.DiesPerWay = s.DiesPerWay[i] })
	add("buffers", len(s.DDRBuffers), func(pt *Point, i int) { pt.Config.DDRBuffers = s.DDRBuffers[i] })
	add("host", len(s.HostIF), func(pt *Point, i int) { pt.Config.HostIF = s.HostIF[i] })
	add("nand", len(s.NANDProfile), func(pt *Point, i int) { pt.Config.NANDProfile = s.NANDProfile[i] })
	add("ecc", len(s.ECCScheme), func(pt *Point, i int) { pt.Config.ECCScheme = s.ECCScheme[i] })
	add("ftl", len(s.FTLMode), func(pt *Point, i int) { pt.Config.FTLMode = s.FTLMode[i] })
	add("cachepol", len(s.CachePolicy), func(pt *Point, i int) { pt.Config.CachePolicy = s.CachePolicy[i] })
	add("pattern", len(s.Patterns), func(pt *Point, i int) { pt.Workload.Pattern = s.Patterns[i] })
	add("block", len(s.BlockSizes), func(pt *Point, i int) { pt.Workload.BlockSize = s.BlockSizes[i] })
	add("mix", len(s.WriteFracs), func(pt *Point, i int) { pt.Workload.WriteFrac = s.WriteFracs[i] })
	add("skew", len(s.Skews), func(pt *Point, i int) { pt.Workload.Skew = s.Skews[i] })
	add("arrival", len(s.Arrivals), func(pt *Point, i int) { pt.Workload.Arrival = s.Arrivals[i] })
	add("tenants", len(s.TenantMixes), func(pt *Point, i int) { pt.Tenants = s.TenantMixes[i] })
	add("policy", len(s.Policies), func(pt *Point, i int) { pt.Policy = s.Policies[i] })
	add("mode", len(s.Modes), func(pt *Point, i int) { pt.Mode = s.Modes[i] })
	return out
}

// Size returns the number of points in the space (the product of the axis
// lengths; 1 for a space with no swept axes). A product beyond int64 reads
// as math.MaxInt64; At, Enumerate and Sample reject such a space.
func (s Space) Size() int64 {
	n, _ := s.count()
	return n
}

// count is Size with an error for a point count that overflows int64.
func (s Space) count() (int64, error) {
	n := int64(1)
	for _, a := range s.axes() {
		if n > math.MaxInt64/int64(a.size) {
			return math.MaxInt64, errors.New("dse: space has more than 2^63-1 points")
		}
		n *= int64(a.size)
	}
	return n, nil
}

// At decodes point index idx (0 <= idx < Size) into a fully-built Point.
// Decoding indices instead of materialising the whole product is what lets
// Sample draw from spaces too large to enumerate.
func (s Space) At(idx int64) (Point, error) {
	s = s.defaults()
	size, err := s.count()
	if err != nil {
		return Point{}, err
	}
	if idx < 0 || idx >= size {
		return Point{}, fmt.Errorf("dse: point index %d outside space of %d", idx, size)
	}
	pt := Point{
		Index:  idx,
		Config: s.Base,
		Workload: workload.Spec{
			Pattern:   trace.SeqWrite,
			BlockSize: trace.DefaultBlockSize,
			SpanBytes: s.SpanBytes,
			Requests:  s.Requests,
			Seed:      s.Seed,
		},
		Mode: core.ModeFull,
	}
	// Mixed-radix decode, last axis varying fastest.
	axes := s.axes()
	rem := idx
	for i := len(axes) - 1; i >= 0; i-- {
		a := axes[i]
		a.apply(&pt, int(rem%int64(a.size)))
		rem /= int64(a.size)
	}
	pt.Config.Name = fmt.Sprintf("p%04d", idx)
	if err := pt.Config.Validate(); err != nil {
		return pt, fmt.Errorf("dse: point %d: %w", idx, err)
	}
	if len(pt.Tenants) > 0 {
		if err := pt.TenantSet().Validate(); err != nil {
			return pt, fmt.Errorf("dse: point %d: %w", idx, err)
		}
		return pt, nil
	}
	if err := pt.Workload.Validate(); err != nil {
		return pt, fmt.Errorf("dse: point %d: %w", idx, err)
	}
	return pt, nil
}

// Enumerate materialises the full Cartesian product in index order.
func (s Space) Enumerate() ([]Point, error) {
	size, err := s.count()
	if err != nil {
		return nil, err
	}
	const enumerateCap = 1 << 20
	if size > enumerateCap {
		return nil, fmt.Errorf("dse: space has %d points; enumerate caps at %d (use Sample)", size, enumerateCap)
	}
	pts := make([]Point, 0, size)
	for i := int64(0); i < size; i++ {
		pt, err := s.At(i)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// Sample draws n distinct points with a seeded generator, so the same
// (space, n, seed) triple always yields the same subset. If n covers the
// whole space the full enumeration is returned instead.
func (s Space) Sample(n int, seed uint64) ([]Point, error) {
	size, err := s.count()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("dse: sample size %d must be positive", n)
	}
	if int64(n) >= size {
		return s.Enumerate()
	}
	// Floyd's algorithm: n distinct indices from [0, size) without
	// materialising the space.
	rng := sim.NewRNG(seed)
	chosen := make(map[int64]struct{}, n)
	order := make([]int64, 0, n)
	for j := size - int64(n); j < size; j++ {
		t := rng.Int63n(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		order = append(order, t)
	}
	pts := make([]Point, 0, n)
	for _, idx := range order {
		pt, err := s.At(idx)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// Point is one evaluable design point: a platform configuration, the
// workload to run on it, and the measurement mode. When Tenants is set the
// point is a multi-queue scenario (Workload is ignored): the tenants run
// through the NVMe-style front end under the Policy's arbitration.
type Point struct {
	Index    int64           `json:"index"`
	Config   config.Platform `json:"config"`
	Workload workload.Spec   `json:"workload"`
	Tenants  []nvme.Tenant   `json:"tenants,omitempty"`
	Policy   nvme.Policy     `json:"policy,omitempty"`
	Mode     core.Mode       `json:"mode"`
}

// TenantSet assembles the point's multi-queue scenario.
func (pt Point) TenantSet() nvme.TenantSet {
	return nvme.TenantSet{Tenants: pt.Tenants, Policy: pt.Policy}
}

// Key returns the content hash of the point — a digest of the complete
// rendered configuration, the workload and the mode, independent of the
// point's position in any space. Two points with identical inputs share a
// key, which is what makes overlapping sweeps incremental under a Cache.
func (pt Point) Key() string {
	var b strings.Builder
	cfg := pt.Config
	cfg.Name = "" // position labels must not split cache entries
	if err := cfg.Render(&b); err != nil {
		// Render only fails on writer errors; strings.Builder has none.
		panic(fmt.Sprintf("dse: render: %v", err))
	}
	if len(pt.Tenants) > 0 {
		b.WriteString(pt.TenantSet().Canonical())
	} else {
		b.WriteString(pt.Workload.Canonical())
	}
	fmt.Fprintf(&b, "mode: %d\n", int(pt.Mode))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Describe renders a compact human label for tables.
func (pt Point) Describe() string {
	wl := pt.Workload.Describe()
	if len(pt.Tenants) > 0 {
		wl = pt.TenantSet().Describe()
	}
	return fmt.Sprintf("%d-ch/%d-way/%d-die/%d-buf %s %s %s",
		pt.Config.Channels, pt.Config.Ways, pt.Config.DiesPerWay,
		pt.Config.DDRBuffers, pt.Config.HostIF, pt.Config.ECCScheme,
		wl)
}
