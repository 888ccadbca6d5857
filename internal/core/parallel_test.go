package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
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

// runDigest is the SHA-256 of a run's Result JSON followed by its Perfetto
// bytes. The event counts are scrubbed (eventsLine pins them on a line of
// their own), and so is the workload label: the replay case's label names a
// temporary file.
func runDigest(t *testing.T, res Result, perfetto []byte) string {
	t.Helper()
	res.Workload = ""
	res.Events = 0
	if res.Utilization != nil {
		// Scrub a copy: the report pointer is shared with the caller.
		u := *res.Utilization
		u.Profile.KernelEvents = 0
		res.Utilization = &u
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	h.Write(perfetto)
	return hex.EncodeToString(h.Sum(nil))
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

// checkGolden records a run's digest under key and its event counts under
// key+"/events", and compares both with the committed golden.
func checkGolden(t *testing.T, golden, got map[string]string, key string, res Result, perfetto []byte) {
	t.Helper()
	for _, kv := range [][2]string{
		{key, runDigest(t, res, perfetto)},
		{key + "/events", eventsLine(res)},
	} {
		got[kv[0]] = kv[1]
		if !*updateGolden && golden[kv[0]] != kv[1] {
			t.Errorf("%s: %s, golden %s (re-run with -update only if the change is intended)",
				kv[0], kv[1], golden[kv[0]])
		}
	}
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
	// A mixed read/write trace replay: reads exercise the shard-side lazy
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
			workload.Patterned(trace.SeqWrite, 4096, 1<<26, 600, 7), ModeFull},
		{"randwrite-waf-c4", preset("t3:C4"),
			workload.Patterned(trace.RandWrite, 4096, 1<<24, 400, 11), ModeFull},
		{"randread-waf-c4", preset("t3:C4"),
			workload.Patterned(trace.RandRead, 4096, 1<<24, 400, 13), ModeFull},
		{"seqwrite-vertex-ecc", preset("vertex"),
			workload.Patterned(trace.SeqWrite, 4096, 1<<26, 400, 17), ModeFull},
		{"randwrite-mapper-c3", mapperCfg("t3:C3"),
			workload.Patterned(trace.RandWrite, 4096, 1<<22, 400, 19), ModeFull},
		{"drain-write-c4", preset("t3:C4"),
			workload.Patterned(trace.SeqWrite, 4096, 1<<24, 256, 23), ModeDDRFlash},
		{"replay-mixed-c4", preset("t3:C4"),
			workload.Spec{TracePath: replayPath}, ModeFull},
		{"drain-read-c4", preset("t3:C4"),
			workload.Patterned(trace.SeqRead, 4096, 1<<24, 256, 31), ModeDDRFlash},
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
	w := workload.Patterned(trace.SeqWrite, 4096, 1<<26, 500, 7)
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
