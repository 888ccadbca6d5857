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
	"slices"
	"strconv"
	"strings"

	"repro/internal/compress"
	"repro/internal/ctrl"
	"repro/internal/ftl"
	"repro/internal/hostif"
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

// Validate checks the configuration for consistency. A value another package
// interprets (host_if, gang_mode, the compressor's ratio and bandwidth) is
// checked by that package, so Validate accepts exactly what core.Build builds.
func (p Platform) Validate() error {
	// NaN slips through every range check below, so reject non-finite
	// values first.
	for _, k := range keys {
		switch v := k.field(&p).(type) {
		case *float64:
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				return fmt.Errorf("config: %s = %v is not a finite number", k.name, *v)
			}
		case *string:
			if k.values != nil && !slices.Contains(k.values, *v) {
				return fmt.Errorf("config: unknown %s %q", k.name, *v)
			}
		}
	}
	if p.Channels < 1 || p.Ways < 1 || p.DiesPerWay < 1 || p.DDRBuffers < 1 {
		return fmt.Errorf("config: invalid topology %d-ch/%d-way/%d-die/%d-buf",
			p.Channels, p.Ways, p.DiesPerWay, p.DDRBuffers)
	}
	if p.ECCScheme != "none" && (p.ECCT < 1 || p.ECCT > 128) {
		return fmt.Errorf("config: ECC strength %d out of range", p.ECCT)
	}
	if p.ECCScheme != "none" && p.ECCEngines < 1 {
		return fmt.Errorf("config: ECC engines %d", p.ECCEngines)
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
	if _, err := hostif.Parse(p.HostIF); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if _, err := ctrl.ParseGangMode(p.GangMode); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	place, err := compress.ParsePlacement(p.CompressPlacement)
	if err == nil {
		err = compress.Config{Placement: place, Ratio: p.CompressRatio, MBps: p.CompressMBps}.Validate()
	}
	if err != nil {
		return fmt.Errorf("config: %w", err)
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

// keyDef is one config-file key: its name, a pointer to the Platform field it
// sets and, for a string this package interprets itself, the values Validate
// accepts.
type keyDef struct {
	name   string
	field  func(*Platform) any
	values []string
}

// keys is the config file's vocabulary, sorted by name: the order Render
// writes the keys in.
var keys = []keyDef{
	{"ahb_layers", func(p *Platform) any { return &p.AHBLayers }, nil},
	{"cache_policy", func(p *Platform) any { return &p.CachePolicy }, []string{"cache", "nocache"}},
	{"channels", func(p *Platform) any { return &p.Channels }, nil},
	{"compress_mbps", func(p *Platform) any { return &p.CompressMBps }, nil},
	// compress.ParsePlacement also takes aliases; one spelling per
	// placement keeps one cache key per design.
	{"compress_placement", func(p *Platform) any { return &p.CompressPlacement }, []string{"none", "host", "channel"}},
	{"compress_ratio", func(p *Platform) any { return &p.CompressRatio }, nil},
	{"cpu_cores", func(p *Platform) any { return &p.CPUCores }, nil},
	{"cpu_model", func(p *Platform) any { return &p.CPUModel }, []string{"parametric", "firmware"}},
	{"ddr_buffers", func(p *Platform) any { return &p.DDRBuffers }, nil},
	{"dies_per_way", func(p *Platform) any { return &p.DiesPerWay }, nil},
	{"ecc_engines", func(p *Platform) any { return &p.ECCEngines }, nil},
	{"ecc_latency", func(p *Platform) any { return &p.ECCLatency }, []string{"bit-serial", "byte-parallel"}},
	{"ecc_scheme", func(p *Platform) any { return &p.ECCScheme }, []string{"none", "fixed", "adaptive"}},
	{"ecc_t", func(p *Platform) any { return &p.ECCT }, nil},
	{"ftl_mode", func(p *Platform) any { return &p.FTLMode }, []string{"waf", "mapper"}},
	{"gang_mode", func(p *Platform) any { return &p.GangMode }, nil},
	{"host_if", func(p *Platform) any { return &p.HostIF }, nil},
	{"mapper_blocks_per_unit", func(p *Platform) any { return &p.MapperBlocksPerUnit }, nil},
	{"multi_plane", func(p *Platform) any { return &p.MultiPlane }, nil},
	{"name", func(p *Platform) any { return &p.Name }, nil},
	{"nand_profile", func(p *Platform) any { return &p.NANDProfile }, []string{"explore", "vertex"}},
	{"parallel", func(p *Platform) any { return &p.Parallel }, nil},
	{"queue_depth", func(p *Platform) any { return &p.QueueDepth }, nil},
	{"seed", func(p *Platform) any { return &p.Seed }, nil},
	{"spare_factor", func(p *Platform) any { return &p.SpareFactor }, nil},
	{"waf_override", func(p *Platform) any { return &p.WAFOverride }, nil},
	{"ways", func(p *Platform) any { return &p.Ways }, nil},
	{"wear", func(p *Platform) any { return &p.Wear }, nil},
	{"write_cache_pages", func(p *Platform) any { return &p.WriteCachePages }, nil},
}

// set applies one key/value pair.
func (p *Platform) set(name, value string) error {
	switch name {
	case "preset":
		var err error
		*p, err = Preset(value)
		return err
	case "dies":
		name = "dies_per_way"
	}
	for _, k := range keys {
		if k.name != name {
			continue
		}
		var err error
		switch v := k.field(p).(type) {
		case *string:
			*v = value
		case *int:
			*v, err = strconv.Atoi(value)
		case *bool:
			*v, err = strconv.ParseBool(value)
		case *float64:
			*v, err = strconv.ParseFloat(value, 64)
		case *uint64:
			*v, err = strconv.ParseUint(value, 10, 64)
		}
		return err
	}
	return fmt.Errorf("unknown key %q", name)
}

// Render writes the platform as a config file (the inverse of Parse).
func (p Platform) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("# ssdexplorer platform configuration\n")
	for _, k := range keys {
		var s string
		switch v := k.field(&p).(type) {
		case *string:
			s = *v
		case *int:
			s = strconv.Itoa(*v)
		case *bool:
			s = strconv.FormatBool(*v)
		case *float64:
			s = strconv.FormatFloat(*v, 'g', -1, 64)
		case *uint64:
			s = strconv.FormatUint(*v, 10)
		}
		fmt.Fprintf(bw, "%s = %s\n", k.name, s)
	}
	return bw.Flush()
}
