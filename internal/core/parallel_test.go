package core

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scrubWall zeroes the wall-clock-dependent result fields so runs compare
// on simulated outcome alone.
func scrubWall(r *Result) {
	r.WallSeconds, r.KCPS = 0, 0
	if r.Utilization != nil {
		r.Utilization.Profile.WallSeconds = 0
		r.Utilization.Profile.EventsPerSec = 0
		r.Utilization.Profile.SimNSPerWallMS = 0
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the committed golden files")

// datapathGolden pins both event cores: per determinism case it holds the
// digest of the serial-core run and of the sharded-core run.
const datapathGolden = "testdata/datapath.golden"

// runCore builds the platform on the serial or the sharded core, runs the
// workload with event tracing on, and returns the scrubbed result plus the
// Perfetto export bytes.
func runCore(t *testing.T, cfg config.Platform, w workload.Spec, mode Mode, sharded bool) (Result, []byte) {
	t.Helper()
	cfg.Parallel = sharded
	p, err := Build(cfg)
	if err != nil {
		t.Fatalf("build (sharded=%v): %v", sharded, err)
	}
	tr := p.EnableTracing(evtrace.Options{Events: true})
	res, err := p.Run(w, mode)
	if err != nil {
		t.Fatalf("run (sharded=%v): %v", sharded, err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("perfetto export (sharded=%v): %v", sharded, err)
	}
	scrubWall(&res)
	return res, buf.Bytes()
}

// resultJSON renders a run's Result for its "<key>/result" golden line,
// indented so that stored sides diff field by field. The event counts are
// scrubbed (eventsLine pins them on a line of their own), and so is the
// workload label: the replay case's label names a temporary file.
func resultJSON(t *testing.T, res Result) []byte {
	t.Helper()
	res.Workload = ""
	res.Events = 0
	if res.Utilization != nil {
		// Scrub a copy: the report pointer is shared with the caller.
		u := *res.Utilization
		u.Profile.KernelEvents = 0
		res.Utilization = &u
	}
	js, err := json.MarshalIndent(res, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// eventsLine renders a run's event counts — the Result's and the
// self-profile's — for its exact "<key>/events" golden line.
func eventsLine(res Result) string {
	var profile uint64
	if res.Utilization != nil {
		profile = res.Utilization.Profile.KernelEvents
	}
	return fmt.Sprintf("result=%d profile=%d", res.Events, profile)
}

// checkGolden records a run's Result and Perfetto trace hashes under
// key+"/result" and key+"/trace" and its event counts under key+"/events",
// and compares all three with the committed golden. A hash mismatch names
// the first differing Result field or trace record (see explainMismatch).
func checkGolden(t *testing.T, golden, got map[string]string, key string, res Result, perfetto []byte) {
	t.Helper()
	for _, side := range []struct {
		suffix string
		data   []byte
	}{
		{"/result", resultJSON(t, res)},
		{"/trace", perfetto},
	} {
		k, sum := key+side.suffix, sha256Hex(side.data)
		got[k] = sum
		switch {
		case *updateGolden:
		case golden[k] == sum:
			storeSide(t, sum, side.data)
		default:
			t.Errorf("%s: %s, golden %s (re-run with -update only if the change is intended)\n%s",
				k, sum, golden[k], explainMismatch(t, side.suffix, golden[k], side.data))
		}
	}
	k, line := key+"/events", eventsLine(res)
	got[k] = line
	if !*updateGolden && golden[k] != line {
		t.Errorf("%s: %s, golden %s (re-run with -update only if the change is intended)", k, line, golden[k])
	}
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenStore is where matched golden sides are kept, gzipped, each in a
// file named by its hash, so a later mismatch can be diffed against the run the golden
// was written from. It lives in the system temp directory and outlasts the
// test run (t.TempDir does not).
func goldenStore() string { return filepath.Join(os.TempDir(), "ssdx-golden") }

// storeSide keeps data in the golden store under its hash, unless a file of
// that name is already there. Writes go through a rename, so concurrent
// test binaries never see a partial file. A store that cannot be written
// only costs the diagnostic.
func storeSide(t *testing.T, sum string, data []byte) string {
	t.Helper()
	path := filepath.Join(goldenStore(), sum)
	if _, err := os.Stat(path); err == nil {
		return path
	}
	if err := os.MkdirAll(goldenStore(), 0o755); err != nil {
		t.Logf("golden store: %v", err)
		return ""
	}
	f, err := os.CreateTemp(goldenStore(), sum+".*")
	if err != nil {
		t.Logf("golden store: %v", err)
		return ""
	}
	zw := gzip.NewWriter(f)
	_, werr := zw.Write(data)
	for _, c := range []io.Closer{zw, f} {
		if cerr := c.Close(); werr == nil {
			werr = cerr
		}
	}
	if werr == nil {
		werr = os.Rename(f.Name(), path)
	}
	if werr != nil {
		os.Remove(f.Name())
		t.Logf("golden store: %v", werr)
		return ""
	}
	return path
}

// explainMismatch stores the side a run produced and, when the store still
// holds the side the golden was written from, names the first Result field
// (suffix "/result") or Perfetto record ("/trace") where the two differ.
func explainMismatch(t *testing.T, suffix, want string, data []byte) string {
	t.Helper()
	gotPath := storeSide(t, sha256Hex(data), data)
	ref, err := readStored(want)
	if err != nil {
		return fmt.Sprintf("\tthis run: %s; no stored side for the golden hash "+
			"(run the test on the code that wrote the golden to keep one)", gotPath)
	}
	what, gotLines, refLines := "trace record", strings.Split(string(data), "\n"), strings.Split(string(ref), "\n")
	if suffix == "/result" {
		what, gotLines, refLines = "Result field", flattenJSON(t, data), flattenJSON(t, ref)
	}
	i := 0
	for i < len(gotLines) && i < len(refLines) && gotLines[i] == refLines[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end)"
	}
	return fmt.Sprintf("\tthis run: %s\n\tgolden:   %s\n\tfirst differing %s (#%d):\n\t  this run: %s\n\t  golden:   %s",
		gotPath, filepath.Join(goldenStore(), want), what, i, at(gotLines), at(refLines))
}

// readStored returns the side stored under hash sum.
func readStored(sum string) ([]byte, error) {
	f, err := os.Open(filepath.Join(goldenStore(), sum))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// flattenJSON lists a JSON document's leaves as "path = value" lines, in
// sorted key order, so two documents compare field by field.
func flattenJSON(t *testing.T, data []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(path+"."+k, v[k])
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			js, _ := json.Marshal(v)
			out = append(out, path+" = "+string(js))
		}
	}
	walk("", v)
	return out
}

// readDigests loads a digest golden: one "<key> <hex>" pair per line.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if *updateGolden {
			return map[string]string{}
		}
		t.Fatalf("missing golden file (re-run the test with -update): %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if key, sum, ok := strings.Cut(line, " "); ok {
			out[key] = sum
		}
	}
	return out
}

// writeDigests rewrites a digest golden in sorted key order.
func writeDigests(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDeterminism pins both event cores: for a fixed seed, the
// serial-core run and the sharded-core run of every case — the full Result
// struct and the byte-exact Perfetto event trace, across topologies, FTL
// modes and access patterns — are digested against the committed datapath
// golden, so a refactor of either core that shifts one simulated event
// fails here. The sharded runs keep their historical "/workers1" keys.
func TestParallelDeterminism(t *testing.T) {
	mapperCfg := func(name string) config.Platform {
		cfg, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FTLMode = "mapper"
		cfg.MapperBlocksPerUnit = 6
		// Small managed space with generous spare so the mapper's minimum
		// spare-page floor holds on the restricted topology and GC kicks in
		// quickly.
		cfg.SpareFactor = 0.45
		return cfg
	}
	preset := func(name string) config.Platform {
		cfg, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// A mixed read/write trace replay: reads exercise the shard-side
	// first-touch preload, writes exercise live WAF reclassification — the
	// two mechanisms that previously forced replay off the parallel core.
	replayPath := writeTrace(t, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24,
		Requests: 400, Seed: 29, WriteFrac: 0.4,
	})
	cases := []struct {
		name string
		cfg  config.Platform
		w    workload.Spec
		mode Mode
	}{
		{"seqwrite-waf-c3", preset("t3:C3"),
			workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 600, Seed: 7}, ModeFull},
		{"randwrite-waf-c4", preset("t3:C4"),
			workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 400, Seed: 11}, ModeFull},
		{"randread-waf-c4", preset("t3:C4"),
			workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 400, Seed: 13}, ModeFull},
		{"seqwrite-vertex-ecc", preset("vertex"),
			workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 400, Seed: 17}, ModeFull},
		{"randwrite-mapper-c3", mapperCfg("t3:C3"),
			workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 400, Seed: 19}, ModeFull},
		{"drain-write-c4", preset("t3:C4"),
			workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 256, Seed: 23}, ModeDDRFlash},
		{"replay-mixed-c4", preset("t3:C4"),
			workload.Spec{TracePath: replayPath}, ModeFull},
		{"drain-read-c4", preset("t3:C4"),
			workload.Spec{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 256, Seed: 31}, ModeDDRFlash},
		// Mixed traffic on the mapper FTL: reads of written pages resolve
		// through the map to flash, the rest zero-fill from the map.
		{"mixed-mapper-c3", mapperCfg("t3:C3"),
			workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22,
				Requests: 600, Seed: 37, WriteFrac: 0.5}, ModeFull},
	}
	golden := readDigests(t, datapathGolden)
	digests := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialTrace := runCore(t, tc.cfg, tc.w, tc.mode, false)
			sharded, shardedTrace := runCore(t, tc.cfg, tc.w, tc.mode, true)
			if sharded.Completed == 0 {
				t.Fatal("sharded run completed nothing")
			}
			checkGolden(t, golden, digests, tc.name+"/serial", serial, serialTrace)
			checkGolden(t, golden, digests, tc.name+"/workers1", sharded, shardedTrace)
		})
	}
	if *updateGolden {
		writeDigests(t, datapathGolden, digests)
	}
}

// TestParallelModeRuns smokes the domain core end to end without tracing and
// checks the bookkeeping the bench rows rely on.
func TestParallelModeRuns(t *testing.T) {
	cfg, err := config.Preset("t3:C4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 500, Seed: 7}
	res, err := RunWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 || res.Events == 0 || res.SimTime == 0 {
		t.Fatalf("implausible parallel result: %+v", res)
	}
	if res.MBps <= 0 {
		t.Fatalf("no throughput measured: %v", res.MBps)
	}
}
