package ssdx

// Integration tests of the public API and the experiment harness, at reduced
// scale. These are the end-to-end checks a downstream user of the library
// relies on; the full-scale numbers come from the cmd/ tools listed under
// "Reproducing the paper's figures" in README.md.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// generate materialises w's whole request stream.
func generate(t testing.TB, w Workload) []trace.Request {
	t.Helper()
	st, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var reqs []trace.Request
	for req, ok := st.Next(); ok; req, ok = st.Next() {
		reqs = append(reqs, req)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestPresetsResolve(t *testing.T) {
	for _, name := range []string{"default", "vertex", "t2:C1", "t2:C10", "t3:C1", "t3:C8"} {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestNewWorkloadValidates(t *testing.T) {
	if _, err := NewWorkload("SW", 4096, 1<<20, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkload("XX", 4096, 1<<20, 100); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := NewWorkload("SW", 0, 1<<20, 100); err == nil {
		t.Fatal("bad block size accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	w, _ := NewWorkload("SW", 4096, 1<<26, 2000)
	res, err := Point{Config: DefaultConfig(), Workload: w, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps <= 0 || res.Completed != 2000 {
		t.Fatalf("result %+v", res)
	}
	if res.AllLat.MeanUS <= 0 || res.AllLat.P99US <= 0 {
		t.Fatalf("latency stats: %+v", res.AllLat)
	}
	if res.WriteLat.Ops != res.Completed || res.ReadLat.Ops != 0 {
		t.Fatalf("per-op latency classes: %+v / %+v", res.WriteLat, res.ReadLat)
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plat.cfg")
	cfg := VertexConfig()
	cfg.Wear = 0.3
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Render(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("config file round trip mismatch")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.cfg")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTraceFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	w, _ := NewWorkload("SW", 4096, 1<<24, 1500)
	reqs := generate(t, w)
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("trace length %d != %d", len(back), len(reqs))
	}
	res, err := replayFile(t, DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != uint64(len(reqs)) {
		t.Fatalf("replay completed %d of %d", res.Completed, len(reqs))
	}
}

// replayFile replays a trace file, starting in the WAF regime its one-shot
// scan classifies.
func replayFile(t *testing.T, cfg Config, path string) (Result, error) {
	t.Helper()
	info, err := ScanTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return Point{Config: cfg, Workload: Workload{TracePath: path, ReplaySeqWrites: !info.RandomWrites}, Mode: ModeFull}.Run(nil)
}

// replayList writes a request list as a trace file and replays it.
func replayList(t *testing.T, cfg Config, reqs []trace.Request) (Result, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "list.trace")
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	return replayFile(t, cfg, path)
}

func TestRunTraceClassifiesPattern(t *testing.T) {
	// A random-write trace must engage the WAF abstraction; sequential not.
	wr, _ := NewWorkload("RW", 4096, 1<<26, 1200)
	randReqs := generate(t, wr)
	res, err := replayList(t, VertexConfig(), randReqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WAF < 2 {
		t.Fatalf("random trace WAF %.2f", res.WAF)
	}
	ws, _ := NewWorkload("SW", 4096, 1<<26, 1200)
	seqReqs := generate(t, ws)
	res, err = replayList(t, VertexConfig(), seqReqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WAF != 1 {
		t.Fatalf("sequential trace WAF %.2f", res.WAF)
	}
}

func TestRunTraceMixedReadWrite(t *testing.T) {
	// Writes below the read region, reads above: replay must preload reads
	// and complete everything.
	var reqs []trace.Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpWrite, LBA: int64(i) * 8, Bytes: 4096})
		reqs = append(reqs, trace.Request{Op: trace.OpRead, LBA: int64(i) * 8, Bytes: 4096})
	}
	res, err := replayList(t, DefaultConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 600 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestFig2HarnessSmall(t *testing.T) {
	rows, err := Fig2Validation(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.SimMBps <= 0 || r.RefMBps <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	var sb strings.Builder
	WriteFig2Table(&sb, rows)
	if !strings.Contains(sb.String(), "SW") {
		t.Fatalf("table rendering: %s", sb.String())
	}
}

func TestDSEHarnessSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := DesignSpaceExplorationShape("sata2", 0.02, "sw")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows %d", len(rows))
	}
	// Structural sanity at small scale: every column positive and the host
	// columns config-independent.
	for _, r := range rows {
		if r.DDRFlash <= 0 || r.SSDCache <= 0 || r.SSDNoCache <= 0 {
			t.Fatalf("row %+v", r)
		}
		if r.HostIdeal < rows[0].HostIdeal*0.99 || r.HostIdeal > rows[0].HostIdeal*1.01 {
			t.Fatalf("host ideal varies across configs: %+v", r)
		}
	}
	var sb strings.Builder
	WriteDSEShapeTable(&sb, "sata2", "sequential write 4KB", rows)
	if !strings.Contains(sb.String(), "C10") {
		t.Fatalf("table rendering")
	}
}

func TestWearHarnessSmall(t *testing.T) {
	rows, err := WearoutSweep(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].AdaptiveRead <= rows[0].FixedRead {
		t.Fatalf("adaptive advantage missing even at small scale: %+v", rows[0])
	}
	var sb strings.Builder
	WriteWearTable(&sb, rows)
	if !strings.Contains(sb.String(), "adaptive R") {
		t.Fatalf("table rendering")
	}
}

func TestSpeedHarnessSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := SimulationSpeed(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// One row per Table III configuration.
	if len(rows) != 8 {
		t.Fatalf("rows %d", len(rows))
	}
	// Shape: small configs simulate faster than the 8192-die monster.
	if rows[0].KCPS <= rows[7].KCPS {
		t.Fatalf("KCPS not decreasing: C1 %.0f vs C8 %.0f", rows[0].KCPS, rows[7].KCPS)
	}
	var sb strings.Builder
	WriteSpeedTable(&sb, rows)
	if !strings.Contains(sb.String(), "KCPS") {
		t.Fatalf("table rendering")
	}
}

func TestFeatureMatrix(t *testing.T) {
	m := FeatureMatrix()
	for _, want := range []string{"WAF FTL", "Real firmware exec", "Multi Core", "Compression"} {
		if !strings.Contains(m, want) {
			t.Fatalf("feature matrix missing %q", want)
		}
	}
}

func TestBuildExposesPlatform(t *testing.T) {
	p, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Host == nil || p.CPU == nil || p.Bus == nil || len(p.Channels) != 4 {
		t.Fatalf("platform components missing")
	}
}

// TestMixedZipfOpenLoopEndToEnd is the PR's acceptance scenario: a 70/30
// read/write zipfian open-loop workload runs end-to-end through the full
// platform and reports per-op-class latency percentiles.
func TestMixedZipfOpenLoopEndToEnd(t *testing.T) {
	w, err := NewWorkload("RR", 4096, 1<<26, 1500)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteFrac = 0.3 // 70% reads, 30% writes
	if w.Skew, err = ParseSkew("zipf:0.99"); err != nil {
		t.Fatal(err)
	}
	if w.Arrival, err = ParseArrival("poisson:20000"); err != nil {
		t.Fatal(err)
	}
	res, err := Point{Config: DefaultConfig(), Workload: w, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1500 {
		t.Fatalf("completed %d of 1500", res.Completed)
	}
	if res.ReadLat.Ops == 0 || res.WriteLat.Ops == 0 ||
		res.ReadLat.Ops+res.WriteLat.Ops != 1500 {
		t.Fatalf("op classes: reads %d writes %d", res.ReadLat.Ops, res.WriteLat.Ops)
	}
	frac := float64(res.WriteLat.Ops) / 1500
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction %.2f, want ~0.3", frac)
	}
	if res.ReadLat.P99US <= 0 || res.WriteLat.P99US <= 0 || res.AllLat.P999US <= 0 {
		t.Fatalf("per-op percentiles missing: %+v / %+v", res.ReadLat, res.WriteLat)
	}
	// Open loop at 20k IOPS: 1500 requests arrive over ~75ms, so the run
	// must span at least that long (a closed-loop run finishes much sooner).
	if res.SimTime.Milliseconds() < 60 {
		t.Fatalf("open-loop run finished in %v; arrivals ignored", res.SimTime)
	}
}

// TestWorkloadShapeSweep: the same scenario is sweepable as dse.Space axes,
// with per-op p99 latency in the exported results.
func TestWorkloadShapeSweep(t *testing.T) {
	zipf, _ := ParseSkew("zipf:0.99")
	poisson, _ := ParseArrival("poisson:20000")
	space := Space{
		Base:       DefaultConfig(),
		SpanBytes:  1 << 24,
		Requests:   400,
		Patterns:   []WorkloadPattern{RandRead},
		WriteFracs: []float64{0.3},
		Skews:      []Skew{{}, zipf},
		Arrivals:   []Arrival{{}, poisson},
	}
	evals, err := Explore(context.Background(), space, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 4 {
		t.Fatalf("evaluated %d points, want 4", len(evals))
	}
	var csv strings.Builder
	if err := WriteSweepCSV(&csv, evals); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	for _, col := range []string{"write_frac", "skew", "arrival", "read_p99_us", "write_p99_us", "p999_lat_us"} {
		if !strings.Contains(out, col) {
			t.Fatalf("exported CSV missing column %q:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "zipf:0.99") || !strings.Contains(out, "poisson:20000") {
		t.Fatalf("workload shape not exported:\n%s", out)
	}
	for _, ev := range evals {
		if ev.Result.ReadLat.P99US <= 0 || ev.Result.WriteLat.P99US <= 0 {
			t.Fatalf("point %s missing per-op p99: %+v / %+v",
				ev.Point.Describe(), ev.Result.ReadLat, ev.Result.WriteLat)
		}
	}
	// The p99 objectives rank the sweep.
	objs, err := ParseObjectives("mbps,readp99,writep99")
	if err != nil {
		t.Fatal(err)
	}
	if front := ParetoFront(evals, objs); len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
}

// TestPhasedWorkloadEndToEnd: precondition (sequential writes) then measure
// (random reads) as one streamed scenario.
func TestPhasedWorkloadEndToEnd(t *testing.T) {
	pre, _ := NewWorkload("SW", 4096, 1<<24, 600)
	measure, _ := NewWorkload("RR", 4096, 1<<24, 600)
	res, err := Point{Config: DefaultConfig(), Workload: Workload{Phases: []Workload{pre, measure}}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1200 {
		t.Fatalf("completed %d of 1200", res.Completed)
	}
	if res.ReadLat.Ops != 600 || res.WriteLat.Ops != 600 {
		t.Fatalf("op classes: %d reads / %d writes", res.ReadLat.Ops, res.WriteLat.Ops)
	}
}

// TestStreamedReplayEndToEnd: a trace file replayed through the streaming
// generator path (TracePath spec) with no pre-scan.
func TestStreamedReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	w, _ := NewWorkload("SW", 4096, 1<<24, 800)
	reqs := generate(t, w)
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	res, err := Point{Config: DefaultConfig(), Workload: Workload{TracePath: path, SpanBytes: 1 << 24}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 800 || res.Requests != 800 {
		t.Fatalf("streamed replay completed %d (requests %d)", res.Completed, res.Requests)
	}
}

// TestPreconditionThenOpenLoopPacing: after a device-paced precondition
// phase, the measure phase's open-loop clock must start at the phase
// boundary (not at t=0, which would collapse the pacing into a burst).
func TestPreconditionThenOpenLoopPacing(t *testing.T) {
	// No-cache policy: issuance is device-paced end to end, so the phase
	// boundary lands at the precondition's real finish time.
	cfg := DefaultConfig()
	cfg.CachePolicy = "nocache"
	pre, _ := NewWorkload("SW", 4096, 1<<24, 4000)
	preOnly, err := Point{Config: cfg, Workload: pre, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	measure, _ := NewWorkload("RR", 4096, 1<<24, 200)
	measure.Arrival, _ = ParseArrival("poisson:2000") // 200 reqs over ~100 ms
	res, err := Point{Config: cfg, Workload: Workload{Phases: []Workload{pre, measure}}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4200 {
		t.Fatalf("completed %d", res.Completed)
	}
	// With the rebase the run spans precondition + ~100 ms of paced
	// arrivals; without it the measure arrivals land in the past and the
	// whole run collapses toward max(precondition, 100 ms).
	if res.SimTime.Milliseconds() < preOnly.SimTime.Milliseconds()+90 {
		t.Fatalf("phased run %v shorter than precondition %v + paced measure window",
			res.SimTime, preOnly.SimTime)
	}
}

// TestReplayWithoutSpan: a replay spec no longer needs a pre-scanned
// SpanBytes — every read preloads its page on first touch,
// so the file streams through a non-mapper platform in a single pass.
func TestReplayWithoutSpan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	w, _ := NewWorkload("SR", 4096, 1<<24, 64)
	reqs := generate(t, w)
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	res, err := Point{Config: DefaultConfig(), Workload: Workload{TracePath: path}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatalf("bare replay without SpanBytes: %v", err)
	}
	if res.Completed != 64 {
		t.Fatalf("completed %d of 64 replayed reads", res.Completed)
	}
	pre, _ := NewWorkload("SW", 4096, 1<<24, 10)
	res, err = Point{Config: DefaultConfig(), Workload: Workload{Phases: []Workload{pre, {TracePath: path}}}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatalf("phased replay without SpanBytes: %v", err)
	}
	if res.Completed != 74 {
		t.Fatalf("completed %d of 74 phased ops", res.Completed)
	}
}

// TestScanTraceFileClassifies: the streaming pre-scan classifies a
// sequential trace, and replay from its regime reports WAF 1.
func TestScanTraceFileClassifies(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	w, _ := NewWorkload("SW", 4096, 1<<24, 500)
	reqs := generate(t, w)
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	info, err := ScanTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Requests != 500 || info.RandomWrites {
		t.Fatalf("scan: %+v", info)
	}
	// Streaming replay with the sequential hint keeps the WAF at 1.
	res, err := Point{Config: DefaultConfig(), Workload: Workload{
		TracePath: path, SpanBytes: 1 << 24, ReplaySeqWrites: !info.RandomWrites,
	}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.WAF != 1 {
		t.Fatalf("sequential streamed replay WAF %.2f, want 1", res.WAF)
	}
}

// TestWriteOnlyReplayWithoutSpan: a trace with no reads replays on a
// non-mapper platform without fabricating a SpanBytes.
func TestWriteOnlyReplayWithoutSpan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	w, _ := NewWorkload("SW", 4096, 1<<24, 300)
	reqs := generate(t, w)
	if err := WriteTraceFile(path, reqs); err != nil {
		t.Fatal(err)
	}
	info, err := ScanTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Point{Config: DefaultConfig(), Workload: Workload{
		TracePath: path, ReplaySeqWrites: !info.RandomWrites,
	}, Mode: ModeFull}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 || res.WAF != 1 {
		t.Fatalf("write-only replay: completed %d WAF %.2f", res.Completed, res.WAF)
	}
}
