package ssdx

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file implements the paper's evaluation harness: one function per
// table/figure, each regenerating the rows/series the paper reports. The
// CLI tools under cmd/ and the root bench_test.go are thin wrappers over
// these. Scale parameters let benches run reduced instances; the cmd/
// tools default to Scale = 1, the paper's full size.

// Fig2References are the real-device throughputs used as the validation
// baseline. The paper compares against an OCZ Vertex 120 GB under IOZone
// 4 KB patterns; the drive itself is unavailable, so these references are
// estimated from the paper's Fig. 2 bar heights and period reviews of the
// Vertex/Barefoot platform.
var Fig2References = map[trace.Pattern]float64{
	trace.SeqWrite:  165,
	trace.SeqRead:   240,
	trace.RandWrite: 32,
	trace.RandRead:  140,
}

// Fig2Row is one bar pair of the validation figure.
type Fig2Row struct {
	Pattern trace.Pattern
	RefMBps float64
	SimMBps float64
	ErrPct  float64
}

// Fig2Validation reproduces the Fig. 2 comparison: the four IOZone patterns
// on the Vertex-class platform. scale (0,1] shrinks the request count for
// quick runs.
func Fig2Validation(scale float64) ([]Fig2Row, error) {
	reqs := scaled(20000, scale)
	var rows []Fig2Row
	for _, pat := range []trace.Pattern{trace.SeqWrite, trace.SeqRead, trace.RandWrite, trace.RandRead} {
		w := workload.Spec{
			Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 28, Requests: reqs, Seed: 7,
		}
		res, err := dse.Point{Config: config.Vertex(), Workload: w, Mode: core.ModeFull}.Run(nil)
		if err != nil {
			return nil, fmt.Errorf("fig2 %v: %w", pat, err)
		}
		ref := Fig2References[pat]
		rows = append(rows, Fig2Row{
			Pattern: pat,
			RefMBps: ref,
			SimMBps: res.MBps,
			ErrPct:  100 * (res.MBps - ref) / ref,
		})
	}
	return rows, nil
}

// DSERow is one configuration's five breakdown columns in Fig. 3 / Fig. 4.
type DSERow struct {
	Name       string
	Topology   string
	DDRFlash   float64 // DDR+FLASH drain rate
	SSDCache   float64 // full SSD, caching policy
	SSDNoCache float64 // full SSD, no-cache policy
	HostIdeal  float64 // SATA/PCIE ideal
	HostDDR    float64 // SATA/PCIE + DDR
}

// expCache memoises harness runs process-wide: the experiment functions all
// evaluate through the dse engine, so repeated table/figure regenerations
// (CLIs, benches, tests) only pay for points they have not simulated yet.
var expCache = dse.NewCache()

// expMetrics, when set via SetExperimentMetrics, instruments every harness
// sweep with live metrics.
var expMetrics *MetricsRegistry

// SetExperimentMetrics binds a live-metrics registry to the shared
// experiment harness: every subsequent figure/table sweep (and the
// process-wide cache) exports its counters there. Pass nil to unbind. Used
// by cmd/dse's -status endpoint; not safe to call concurrently with a
// running harness sweep.
func SetExperimentMetrics(reg *MetricsRegistry) { expMetrics = reg }

// expRunner returns the shared experiment runner: real simulator, one
// worker per core, process-wide cache.
func expRunner() *dse.Runner {
	return &dse.Runner{Cache: expCache, Metrics: expMetrics}
}

// ShapeWorkload resolves a figure-harness workload shape: beyond the
// paper's SW-only sweep, "mixed" and "zipf" re-run the same hardware space
// under a mixed random 50/50 workload and a zipfian read-mostly one, so the
// Fig. 3/4 conclusions can be compared across workload shapes (EagleTree's
// lesson: scheduling and workload shape shift design conclusions).
func ShapeWorkload(shape string) (workload.Spec, string, error) {
	base := workload.Spec{BlockSize: 4096, SpanBytes: 1 << 30, Seed: 7}
	switch strings.ToLower(strings.TrimSpace(shape)) {
	case "sw", "":
		base.Pattern = trace.SeqWrite
		return base, "sequential write 4KB", nil
	case "mixed":
		base.Pattern = trace.RandWrite
		base.WriteFrac = 0.5
		return base, "mixed random 50/50 4KB", nil
	case "zipf":
		base.Pattern = trace.RandRead
		base.WriteFrac = 0.3
		base.Skew = workload.Skew{Kind: workload.SkewZipf, Theta: 0.9}
		return base, "zipfian 70/30 read-heavy 4KB", nil
	}
	return workload.Spec{}, "", fmt.Errorf("ssdx: unknown workload shape %q (have sw, mixed, zipf)", shape)
}

// DesignSpaceExplorationShape reproduces Fig. 3 (host = "sata2") or Fig. 4
// (host = "pcie-g2x8") under the given workload shape; shape "sw" is the
// paper's sequential 4 KB writes. The ten Table II configurations times
// five breakdown columns run as one parallel sweep on the dse engine. The
// DDR+FLASH drain column exists only for the plain sequential-write shape
// (the drain mode measures closed-loop synthetic patterns); other shapes
// report it as NaN and the table renders a dash.
func DesignSpaceExplorationShape(host string, scale float64, shape string) ([]DSERow, error) {
	w, _, err := ShapeWorkload(shape)
	if err != nil {
		return nil, err
	}
	drain := w.Simple()
	cfgs := config.TableII()
	// Columns per configuration, in order. Wire-bound columns converge
	// fast; flash-bound columns need steady state past the write-cache
	// fill; no-cache runs are latency-bound (queue-depth wall) and need
	// fewer requests still.
	cols := 4
	if drain {
		cols = 5
	}
	var pts []dse.Point
	for _, cfg := range cfgs {
		cfg.HostIF = host
		short, long, ncReqs := scaled(4000, scale), scaled(16000, scale), scaled(6000, scale)
		ncfg := cfg
		ncfg.CachePolicy = "nocache"
		mk := func(c config.Platform, reqs int, mode core.Mode) dse.Point {
			wl := w
			wl.Requests = reqs
			return dse.Point{Config: c, Workload: wl, Mode: mode}
		}
		pts = append(pts,
			mk(cfg, short, core.ModeHostIdeal),
			mk(cfg, short, core.ModeHostDDR),
		)
		if drain {
			pts = append(pts, mk(cfg, long, core.ModeDDRFlash))
		}
		pts = append(pts,
			mk(cfg, long, core.ModeFull),
			mk(ncfg, ncReqs, core.ModeFull),
		)
	}
	evals, err := expRunner().Run(context.Background(), pts)
	if err != nil {
		return nil, fmt.Errorf("dse sweep (host=%s, shape=%s): %w", host, shape, err)
	}
	rows := make([]DSERow, len(cfgs))
	for i, cfg := range cfgs {
		col := evals[i*cols : (i+1)*cols]
		rows[i] = DSERow{
			Name:      cfg.Name,
			Topology:  cfg.Describe(),
			HostIdeal: col[0].Result.MBps,
			HostDDR:   col[1].Result.MBps,
			DDRFlash:  math.NaN(),
		}
		rest := col[2:]
		if drain {
			rows[i].DDRFlash = col[2].Result.MBps
			rest = col[3:]
		}
		rows[i].SSDCache = rest[0].Result.MBps
		rows[i].SSDNoCache = rest[1].Result.MBps
	}
	return rows, nil
}

// WearRow is one endurance sample of the Fig. 5 experiment.
type WearRow struct {
	Wear          float64
	FixedRead     float64
	FixedWrite    float64
	AdaptiveRead  float64
	AdaptiveWrite float64
}

// WearoutSweep reproduces Fig. 5: sequential read and write throughput over
// normalised rated endurance for a fixed 40-bit BCH vs an adaptive BCH, on
// the paper's 4-channel / 2-way / 4-die platform with a shared bit-serial
// ECC engine. All (wear x scheme x pattern) samples run as one parallel
// sweep on the dse engine.
func WearoutSweep(points int, scale float64) ([]WearRow, error) {
	if points < 2 {
		points = 2
	}
	reqs := scaled(6000, scale)
	mk := func(scheme string, wear float64, pat trace.Pattern) dse.Point {
		cfg := config.Default() // 4-CHN; 2-WAY; 4-DIE
		cfg.ECCScheme = scheme
		cfg.ECCT = 40
		cfg.ECCEngines = 1
		cfg.ECCLatency = "bit-serial"
		cfg.Wear = wear
		w := workload.Spec{Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 27, Requests: reqs, Seed: 7}
		return dse.Point{Config: cfg, Workload: w, Mode: core.ModeFull}
	}
	const series = 4 // fixed R, fixed W, adaptive R, adaptive W
	var pts []dse.Point
	for i := 0; i < points; i++ {
		wear := float64(i) / float64(points-1)
		pts = append(pts,
			mk("fixed", wear, trace.SeqRead),
			mk("fixed", wear, trace.SeqWrite),
			mk("adaptive", wear, trace.SeqRead),
			mk("adaptive", wear, trace.SeqWrite),
		)
	}
	evals, err := expRunner().Run(context.Background(), pts)
	if err != nil {
		return nil, fmt.Errorf("wearout sweep: %w", err)
	}
	rows := make([]WearRow, points)
	for i := 0; i < points; i++ {
		s := evals[i*series : (i+1)*series]
		rows[i] = WearRow{
			Wear:          float64(i) / float64(points-1),
			FixedRead:     s[0].Result.MBps,
			FixedWrite:    s[1].Result.MBps,
			AdaptiveRead:  s[2].Result.MBps,
			AdaptiveWrite: s[3].Result.MBps,
		}
	}
	return rows, nil
}

// SpeedRow is one bar of the Fig. 6 simulation-speed experiment.
type SpeedRow struct {
	Name     string  `json:"name"`
	Topology string  `json:"topology"`
	Dies     int     `json:"dies"`
	KCPS     float64 `json:"kcps"`
	Events   uint64  `json:"events"`
	WallSec  float64 `json:"wall_sec"`

	// EventsPerSec and SimNS extend the Fig. 6 readout with the simulator
	// self-profile's units: kernel events retired per wall-clock second and
	// the simulated span covered, for events/sec and simulated-ns-per-wall-ms
	// trend tracking across commits.
	EventsPerSec float64 `json:"events_per_sec"`
	SimNS        int64   `json:"sim_ns"`
}

// PaperKCPS are the paper's measured kilo-cycles-per-second values for
// Table III C1-C8 (Fig. 6), for side-by-side reporting. Absolute values are
// host- and kernel-dependent; the reproduction target is the inverse scaling
// with instantiated resources.
var PaperKCPS = []float64{144.1, 108.4, 79.5, 39.7, 34.8, 25.4, 15.8, 0.3}

// SimulationSpeed reproduces Fig. 6: a fixed sequential-write workload over
// the Table III configurations, reporting simulated CPU kilo-cycles per
// wall-clock second. Unlike the throughput experiments this one measures
// wall-clock speed, so it deliberately runs one measurement at a time and
// uncached — overlapping measurements would corrupt the KCPS numbers.
func SimulationSpeed(scale float64) ([]SpeedRow, error) {
	reqs := scaled(3000, scale)
	var rows []SpeedRow
	for _, cfg := range config.TableIII() {
		row, err := speedRow(cfg, reqs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// speedRow measures one Fig. 6 bar.
func speedRow(cfg config.Platform, reqs int) (SpeedRow, error) {
	w := workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 28, Requests: reqs, Seed: 7,
	}
	res, err := dse.Point{Config: cfg, Workload: w, Mode: core.ModeFull}.Run(nil)
	if err != nil {
		return SpeedRow{}, fmt.Errorf("simspeed %s: %w", cfg.Name, err)
	}
	row := SpeedRow{
		Name:     cfg.Name,
		Topology: cfg.Describe(),
		Dies:     cfg.TotalDies(),
		KCPS:     res.KCPS,
		Events:   res.Events,
		WallSec:  res.WallSeconds,
		SimNS:    int64(res.SimTime) / 1000, // sim.Time is picoseconds
	}
	if row.WallSec > 0 {
		row.EventsPerSec = float64(row.Events) / row.WallSec
	}
	return row, nil
}

// scaled shrinks a request count by scale, keeping a sane floor.
func scaled(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	v := int(float64(n) * scale)
	if v < 200 {
		v = 200
	}
	return v
}

// --- report rendering ------------------------------------------------------

// WriteFig2Table renders the validation comparison.
func WriteFig2Table(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "%-4s %12s %12s %8s\n", "pat", "ref MB/s", "sim MB/s", "err %")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s %12.1f %12.1f %+8.1f\n", r.Pattern, r.RefMBps, r.SimMBps, r.ErrPct)
	}
}

// WriteDSEShapeTable renders a Fig. 3 / Fig. 4 style table under an
// arbitrary workload label. NaN columns (e.g. the drain column of non-SW
// shapes) render as a dash.
func WriteDSEShapeTable(w io.Writer, host, label string, rows []DSERow) {
	fmt.Fprintf(w, "# %s, host=%s (MB/s)\n", label, host)
	fmt.Fprintf(w, "%-5s %-30s %10s %10s %12s %11s %10s\n",
		"cfg", "topology", "DDR+FLASH", "SSD cache", "SSD no-cache", "HOST ideal", "HOST+DDR")
	cell := func(width int, v float64) string {
		if math.IsNaN(v) {
			return fmt.Sprintf("%*s", width, "-")
		}
		return fmt.Sprintf("%*.1f", width, v)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-30s %s %s %s %s %s\n",
			r.Name, r.Topology, cell(10, r.DDRFlash), cell(10, r.SSDCache),
			cell(12, r.SSDNoCache), cell(11, r.HostIdeal), cell(10, r.HostDDR))
	}
}

// WriteWearTable renders the Fig. 5 series.
func WriteWearTable(w io.Writer, rows []WearRow) {
	fmt.Fprintf(w, "%-6s %12s %12s %14s %14s\n",
		"wear", "fixed R", "fixed W", "adaptive R", "adaptive W")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.2f %12.1f %12.1f %14.1f %14.1f\n",
			r.Wear, r.FixedRead, r.FixedWrite, r.AdaptiveRead, r.AdaptiveWrite)
	}
}

// WriteSpeedTable renders the Fig. 6 bars next to the paper's values, row i
// beside Table III configuration i.
func WriteSpeedTable(w io.Writer, rows []SpeedRow) {
	fmt.Fprintf(w, "%-8s %-32s %8s %12s %12s %10s\n",
		"cfg", "topology", "dies", "KCPS (sim)", "KCPS(paper)", "events")
	for i, r := range rows {
		paper := "-"
		if i < len(PaperKCPS) {
			paper = fmt.Sprintf("%.1f", PaperKCPS[i])
		}
		fmt.Fprintf(w, "%-8s %-32s %8d %12.0f %12s %10d\n",
			r.Name, r.Topology, r.Dies, r.KCPS, paper, r.Events)
	}
}

// FeatureMatrix reproduces the paper's Table I — the qualitative comparison
// of reconfigurable parameters across framework classes. Rendered by the
// README and `cmd/ssdexplorer -features`.
func FeatureMatrix() string {
	rows := [][5]string{
		{"Actual FTL (WL, GC, TRIM)", "yes", "yes", "yes", "yes"},
		{"WAF FTL", "yes", "no", "no", "no"},
		{"Host IF performance", "yes", "yes", "no", "yes"},
		{"Real workload", "no", "yes", "no", "yes"},
		{"Different Host IF", "yes", "no", "yes", "no"},
		{"DDR timings", "yes", "no", "no", "no"},
		{"Multi DDR buffer", "yes", "no", "no", "no"},
		{"Way: Shared bus", "yes", "yes", "yes", "yes"},
		{"Way: Shared control", "yes", "no", "yes", "no"},
		{"NAND architecture", "yes", "yes", "yes", "no"},
		{"NAND timings", "yes", "yes", "yes", "yes"},
		{"NAND latency aware", "yes", "no", "no", "yes"},
		{"ECC timings", "yes", "no", "no", "yes"},
		{"Compression", "yes", "no", "no", "no"},
		{"Interconnect model", "yes", "no", "no", "yes"},
		{"Core model", "yes", "no", "no", "yes"},
		{"Real firmware exec", "yes", "no", "no", "yes"},
		{"Multi Core", "yes", "no", "no", "no"},
		{"Model refinement", "yes", "no", "no", "no"},
		{"Simulation Speed", "variable", "high", "high", "fixed"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %-10s %-12s %-10s\n",
		"Reconfigurable parameter", "SSDExplorer", "Emulation", "Trace-driven", "Hardware")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-12s %-10s %-12s %-10s\n", r[0], r[1], r[2], r[3], r[4])
	}
	return b.String()
}
