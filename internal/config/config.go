// Package config defines the platform configuration surface of the
// reproduction. The paper stresses that SSDExplorer instances are assembled
// from "a simple text configuration file, which abstracts internal modeling
// details" (§III-C2) — this package provides that file format (key = value
// lines) plus the named presets used by the experiments: the Table II
// design points (C1-C10), the Table III simulation-speed points (C1-C8) and
// the OCZ-Vertex-like validation platform.
package config

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ftl"
	"repro/internal/nand"
)

// Platform is the complete parameter set of one simulated SSD.
type Platform struct {
	Name string

	// Topology (the Table II / Table III axes).
	Channels   int
	Ways       int
	DiesPerWay int
	DDRBuffers int

	// Host interface: "sata2" or "pcie-g<G>x<L>"; QueueDepth 0 keeps the
	// interface default (NCQ 32 / NVMe 64K).
	HostIF     string
	QueueDepth int

	// NAND: timing profile and multi-plane batching.
	NANDProfile string // "explore" | "vertex"
	MultiPlane  bool

	// DRAM buffer management policy (paper §IV-A): "cache" notifies the
	// host at DRAM landing; "nocache" waits for NAND completion.
	CachePolicy string

	// Channel/way interconnection scheme: "shared-bus" | "shared-control".
	GangMode string

	// ECC: "none" | "fixed" | "adaptive"; T is the (max) correction
	// strength; Engines counts shared ECC units; Latency selects
	// "bit-serial" | "byte-parallel".
	ECCScheme  string
	ECCT       int
	ECCEngines int
	ECCLatency string

	// Compression: "none" | "host" | "channel".
	CompressPlacement string
	CompressRatio     float64
	CompressMBps      float64

	// FTL: "waf" runs the greedy write-amplification abstraction the paper
	// validates with; "mapper" runs the real page-mapped FTL (greedy GC,
	// wear leveling, TRIM) on every request. SpareFactor sets the
	// over-provisioning for both; WAFOverride > 0 forces the abstraction's
	// amplification.
	FTLMode     string
	SpareFactor float64
	WAFOverride float64
	// MapperBlocksPerUnit restricts how many blocks per plane the real FTL
	// manages (0 = all). Small values let short runs reach garbage
	// collection; the physical array is unchanged.
	MapperBlocksPerUnit int

	// CPU complex. CPUModel "parametric" charges the calibrated firmware
	// cost model; "firmware" executes the real ARMv4-subset FTL lookup
	// routine on the interpreter for every command and charges the actual
	// cycles ("Real firmware exec" in the paper's Table I).
	CPUCores int
	CPUModel string

	// Interconnect layers (1 = the validated shared AHB).
	AHBLayers int

	// WriteCachePages bounds dirty pages buffered in DRAM (0 = default
	// 1024). The finite cache is what couples host throughput to the
	// sustained flash drain rate in "SSD cache" measurements.
	WriteCachePages int

	// Pre-aged NAND wear (normalised rated endurance, Fig. 5 x-axis).
	Wear float64

	// Parallel switches the event core to per-channel clock domains
	// synchronized with conservative lookahead: each ONFI channel runs its
	// own event kernel, and cross-domain interactions travel as timestamped
	// messages with 1us of modeled hand-off latency. The domains run one
	// after another on the calling goroutine. Serial mode (Parallel false)
	// keeps the single monolithic kernel and is the timing-validated path.
	Parallel bool

	// Deprecated: ignored. The sharded core has no worker pool.
	ParallelWorkers int

	Seed uint64
}

// Default returns the baseline platform every preset is derived from.
func Default() Platform {
	return Platform{
		Name:              "default",
		Channels:          4,
		Ways:              2,
		DiesPerWay:        4,
		DDRBuffers:        1,
		HostIF:            "sata2",
		NANDProfile:       "explore",
		CachePolicy:       "cache",
		GangMode:          "shared-bus",
		ECCScheme:         "none",
		ECCT:              40,
		ECCEngines:        1,
		ECCLatency:        "byte-parallel",
		CompressPlacement: "none",
		CompressRatio:     0.5,
		CompressMBps:      400,
		FTLMode:           "waf",
		CPUModel:          "parametric",
		SpareFactor:       0.126,
		CPUCores:          1,
		AHBLayers:         1,
		Seed:              1,
	}
}

// Validate checks the configuration for consistency.
func (p Platform) Validate() error {
	// NaN slips through every range check below, so reject non-finite
	// values first.
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"compress_ratio", p.CompressRatio},
		{"compress_mbps", p.CompressMBps},
		{"spare_factor", p.SpareFactor},
		{"waf_override", p.WAFOverride},
		{"wear", p.Wear},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("config: %s = %v is not a finite number", f.key, f.v)
		}
	}
	if p.Channels < 1 || p.Ways < 1 || p.DiesPerWay < 1 || p.DDRBuffers < 1 {
		return fmt.Errorf("config: invalid topology %d-ch/%d-way/%d-die/%d-buf",
			p.Channels, p.Ways, p.DiesPerWay, p.DDRBuffers)
	}
	switch p.NANDProfile {
	case "explore", "vertex":
	default:
		return fmt.Errorf("config: unknown NAND profile %q", p.NANDProfile)
	}
	switch p.CachePolicy {
	case "cache", "nocache":
	default:
		return fmt.Errorf("config: unknown cache policy %q", p.CachePolicy)
	}
	switch p.GangMode { // the names ctrl.ParseGangMode accepts
	case "shared-bus", "bus", "", "shared-control", "control":
	default:
		return fmt.Errorf("config: unknown gang mode %q", p.GangMode)
	}
	switch p.ECCScheme {
	case "none", "fixed", "adaptive":
	default:
		return fmt.Errorf("config: unknown ECC scheme %q", p.ECCScheme)
	}
	switch p.ECCLatency {
	case "bit-serial", "byte-parallel":
	default:
		return fmt.Errorf("config: unknown ECC latency profile %q", p.ECCLatency)
	}
	if p.ECCScheme != "none" && (p.ECCT < 1 || p.ECCT > 128) {
		return fmt.Errorf("config: ECC strength %d out of range", p.ECCT)
	}
	if p.ECCScheme != "none" && p.ECCEngines < 1 {
		return fmt.Errorf("config: ECC engines %d", p.ECCEngines)
	}
	switch p.CompressPlacement {
	case "none", "host", "channel":
	default:
		return fmt.Errorf("config: unknown compressor placement %q", p.CompressPlacement)
	}
	switch p.FTLMode {
	case "waf", "mapper":
	default:
		return fmt.Errorf("config: unknown FTL mode %q", p.FTLMode)
	}
	if p.SpareFactor <= 0 || p.SpareFactor >= 1 {
		return fmt.Errorf("config: spare factor %v out of (0,1)", p.SpareFactor)
	}
	if p.WAFOverride < 0 || (p.WAFOverride > 0 && p.WAFOverride < 1) {
		return fmt.Errorf("config: WAF override %v", p.WAFOverride)
	}
	if p.CPUCores < 1 || p.AHBLayers < 1 {
		return fmt.Errorf("config: cores/layers must be positive")
	}
	switch p.CPUModel {
	case "parametric", "firmware":
	default:
		return fmt.Errorf("config: unknown CPU model %q", p.CPUModel)
	}
	if p.Wear < 0 || p.Wear > 1.2 {
		return fmt.Errorf("config: wear %v out of [0, 1.2]", p.Wear)
	}
	if p.QueueDepth < 0 {
		return fmt.Errorf("config: negative queue depth")
	}
	if p.WriteCachePages < 0 {
		return fmt.Errorf("config: negative write cache size")
	}
	if p.MapperBlocksPerUnit < 0 {
		return fmt.Errorf("config: negative mapper block restriction")
	}
	if p.FTLMode == "mapper" {
		if err := ftl.CheckSpace(p.MapperGeometry()); err != nil {
			return fmt.Errorf("config: mapper FTL: %w", err)
		}
	}
	return nil
}

// MapperGeometry sizes the real FTL to the platform: one allocation unit per
// plane, MapperBlocksPerUnit blocks each (every block of the plane when 0),
// and a logical space that holds back SpareFactor of the raw pages.
func (p Platform) MapperGeometry() (ftl.Geometry, int64) {
	geo := nand.DefaultGeometry()
	blocks := geo.BlocksPerPlane
	if p.MapperBlocksPerUnit > 0 && p.MapperBlocksPerUnit < blocks {
		blocks = p.MapperBlocksPerUnit
	}
	g := ftl.Geometry{
		Units:         p.TotalDies() * geo.PlanesPerDie,
		BlocksPerUnit: blocks,
		PagesPerBlock: geo.PagesPerBlock,
	}
	return g, int64(float64(g.TotalPages()) * (1 - p.SpareFactor))
}

// TotalDies returns the die count of the platform.
func (p Platform) TotalDies() int { return p.Channels * p.Ways * p.DiesPerWay }

// Describe renders the paper's shorthand: N-DDR-buf;N-CHN;N-WAY;N-DIE.
func (p Platform) Describe() string {
	return fmt.Sprintf("%d-DDR-buf;%d-CHN;%d-WAY;%d-DIE",
		p.DDRBuffers, p.Channels, p.Ways, p.DiesPerWay)
}

// topo derives a preset from the default with the given topology.
func topo(name string, buf, chn, way, die int) Platform {
	p := Default()
	p.Name = name
	p.DDRBuffers, p.Channels, p.Ways, p.DiesPerWay = buf, chn, way, die
	return p
}

// TableII returns the ten design points of the paper's Table II, used by
// the optimal-design-point exploration (Figs. 3 and 4).
func TableII() []Platform {
	return []Platform{
		topo("C1", 4, 4, 4, 2),
		topo("C2", 8, 8, 4, 2),
		topo("C3", 8, 8, 8, 2),
		topo("C4", 8, 8, 8, 4),
		topo("C5", 8, 8, 8, 8),
		topo("C6", 16, 16, 8, 4),
		topo("C7", 16, 16, 4, 2),
		topo("C8", 32, 32, 4, 2),
		topo("C9", 32, 32, 1, 1),
		topo("C10", 32, 32, 8, 4),
	}
}

// TableIII returns the eight configurations of the paper's Table III, used
// by the simulation-speed experiment (Fig. 6).
func TableIII() []Platform {
	return []Platform{
		topo("C1", 1, 1, 1, 1),
		topo("C2", 1, 2, 1, 2),
		topo("C3", 1, 4, 1, 2),
		topo("C4", 1, 4, 2, 4),
		topo("C5", 4, 4, 2, 4),
		topo("C6", 4, 4, 2, 8),
		topo("C7", 4, 4, 2, 16),
		topo("C8", 32, 32, 16, 16),
	}
}

// Vertex returns the OCZ-Vertex-like validation platform (Fig. 2): the
// paper states the Table III C4 topology models the Vertex/Barefoot drive.
// Typical-MLC NAND timing, multi-plane programming, write caching, a fast
// byte-parallel fixed BCH, and the drive's ~12.6% over-provisioning.
func Vertex() Platform {
	p := topo("vertex", 1, 4, 2, 4)
	p.NANDProfile = "vertex"
	p.MultiPlane = true
	p.ECCScheme = "fixed"
	p.ECCT = 40
	p.ECCEngines = 4
	p.ECCLatency = "byte-parallel"
	p.SpareFactor = 0.126
	return p
}

// Preset resolves a named preset: "default", "vertex", "t2:C5", "t3:C2".
func Preset(name string) (Platform, error) {
	switch strings.ToLower(name) {
	case "", "default":
		return Default(), nil
	case "vertex", "barefoot":
		return Vertex(), nil
	}
	pick := func(list []Platform, id string) (Platform, error) {
		for _, p := range list {
			if strings.EqualFold(p.Name, id) {
				return p, nil
			}
		}
		return Platform{}, fmt.Errorf("config: no preset %q", name)
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(name), "t2:"); ok {
		return pick(TableII(), rest)
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(name), "t3:"); ok {
		return pick(TableIII(), rest)
	}
	return Platform{}, fmt.Errorf("config: no preset %q", name)
}

// Parse reads a key = value configuration file into a Platform, starting
// from Default (or from a named "preset = X" base).
func Parse(r io.Reader) (Platform, error) {
	p := Default()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return p, fmt.Errorf("config: line %d: want key = value", lineno)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		value = strings.TrimSpace(value)
		if err := p.set(key, value); err != nil {
			return p, fmt.Errorf("config: line %d: %v", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	return p, p.Validate()
}

// set applies one key/value pair.
func (p *Platform) set(key, value string) error {
	atoi := func() (int, error) { return strconv.Atoi(value) }
	atof := func() (float64, error) { return strconv.ParseFloat(value, 64) }
	var err error
	switch key {
	case "preset":
		*p, err = Preset(value)
	case "name":
		p.Name = value
	case "channels":
		p.Channels, err = atoi()
	case "ways":
		p.Ways, err = atoi()
	case "dies_per_way", "dies":
		p.DiesPerWay, err = atoi()
	case "ddr_buffers":
		p.DDRBuffers, err = atoi()
	case "host_if":
		p.HostIF = value
	case "queue_depth":
		p.QueueDepth, err = atoi()
	case "nand_profile":
		p.NANDProfile = value
	case "multi_plane":
		p.MultiPlane, err = strconv.ParseBool(value)
	case "cache_policy":
		p.CachePolicy = value
	case "gang_mode":
		p.GangMode = value
	case "ecc_scheme":
		p.ECCScheme = value
	case "ecc_t":
		p.ECCT, err = atoi()
	case "ecc_engines":
		p.ECCEngines, err = atoi()
	case "ecc_latency":
		p.ECCLatency = value
	case "compress_placement":
		p.CompressPlacement = value
	case "compress_ratio":
		p.CompressRatio, err = atof()
	case "compress_mbps":
		p.CompressMBps, err = atof()
	case "ftl_mode":
		p.FTLMode = value
	case "mapper_blocks_per_unit":
		p.MapperBlocksPerUnit, err = atoi()
	case "spare_factor":
		p.SpareFactor, err = atof()
	case "waf_override":
		p.WAFOverride, err = atof()
	case "cpu_cores":
		p.CPUCores, err = atoi()
	case "cpu_model":
		p.CPUModel = value
	case "ahb_layers":
		p.AHBLayers, err = atoi()
	case "write_cache_pages":
		p.WriteCachePages, err = atoi()
	case "wear":
		p.Wear, err = atof()
	case "parallel":
		p.Parallel, err = strconv.ParseBool(value)
	case "seed":
		var v uint64
		v, err = strconv.ParseUint(value, 10, 64)
		p.Seed = v
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return err
}

// Render writes the platform as a config file (the inverse of Parse).
func (p Platform) Render(w io.Writer) error {
	kv := map[string]string{
		"name":                   p.Name,
		"channels":               strconv.Itoa(p.Channels),
		"ways":                   strconv.Itoa(p.Ways),
		"dies_per_way":           strconv.Itoa(p.DiesPerWay),
		"ddr_buffers":            strconv.Itoa(p.DDRBuffers),
		"host_if":                p.HostIF,
		"queue_depth":            strconv.Itoa(p.QueueDepth),
		"nand_profile":           p.NANDProfile,
		"multi_plane":            strconv.FormatBool(p.MultiPlane),
		"cache_policy":           p.CachePolicy,
		"gang_mode":              p.GangMode,
		"ecc_scheme":             p.ECCScheme,
		"ecc_t":                  strconv.Itoa(p.ECCT),
		"ecc_engines":            strconv.Itoa(p.ECCEngines),
		"ecc_latency":            p.ECCLatency,
		"compress_placement":     p.CompressPlacement,
		"compress_ratio":         strconv.FormatFloat(p.CompressRatio, 'g', -1, 64),
		"compress_mbps":          strconv.FormatFloat(p.CompressMBps, 'g', -1, 64),
		"ftl_mode":               p.FTLMode,
		"mapper_blocks_per_unit": strconv.Itoa(p.MapperBlocksPerUnit),
		"spare_factor":           strconv.FormatFloat(p.SpareFactor, 'g', -1, 64),
		"waf_override":           strconv.FormatFloat(p.WAFOverride, 'g', -1, 64),
		"cpu_cores":              strconv.Itoa(p.CPUCores),
		"cpu_model":              p.CPUModel,
		"write_cache_pages":      strconv.Itoa(p.WriteCachePages),
		"ahb_layers":             strconv.Itoa(p.AHBLayers),
		"wear":                   strconv.FormatFloat(p.Wear, 'g', -1, 64),
		"parallel":               strconv.FormatBool(p.Parallel),
		"seed":                   strconv.FormatUint(p.Seed, 10),
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ssdexplorer platform configuration\n")
	for _, k := range keys {
		fmt.Fprintf(bw, "%s = %s\n", k, kv[k])
	}
	return bw.Flush()
}
