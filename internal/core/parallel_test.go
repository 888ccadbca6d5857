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
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scrubWall zeroes the wall-clock-dependent result fields so serial- and
// parallel-driver runs compare on simulated outcome alone.
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
// digest of the serial-core run and of the workers=1 sharded run.
const datapathGolden = "testdata/datapath.golden"

// runCore builds the platform on the serial core (workers == 0) or the
// sharded core with the given worker count, runs the workload with event
// tracing on, and returns the scrubbed result plus the Perfetto export bytes.
func runCore(t *testing.T, cfg config.Platform, w workload.Spec, mode Mode, workers int) (Result, []byte) {
	t.Helper()
	if workers > 0 {
		cfg.Parallel = true
		cfg.ParallelWorkers = workers
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatalf("build (workers=%d): %v", workers, err)
	}
	tr := p.EnableTracing(evtrace.Options{Events: true})
	res, err := p.Run(w, mode)
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("perfetto export (workers=%d): %v", workers, err)
	}
	scrubWall(&res)
	return res, buf.Bytes()
}

// runDigest is the SHA-256 of a run's Result JSON followed by its Perfetto
// bytes. The workload label is blanked first: the replay case's label names
// a temporary file.
func runDigest(t *testing.T, res Result, perfetto []byte) string {
	t.Helper()
	res.Workload = ""
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	h.Write(perfetto)
	return hex.EncodeToString(h.Sum(nil))
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

// TestParallelDeterminism pins the sharded core's central guarantee: for a
// fixed seed, the serial domain driver (workers=1) and the parallel driver
// produce identical results — the full Result struct and the byte-exact
// Perfetto event trace — across topologies, FTL modes and access patterns.
// Both the serial-core run and the workers=1 run are also digested against
// the committed datapath golden, so a refactor of either core that shifts
// one simulated event fails here.
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
			serial, serialTrace := runCore(t, tc.cfg, tc.w, tc.mode, 0)
			ref, refTrace := runCore(t, tc.cfg, tc.w, tc.mode, 1)
			if ref.Completed == 0 {
				t.Fatal("reference run completed nothing")
			}
			for key, sum := range map[string]string{
				tc.name + "/serial":   runDigest(t, serial, serialTrace),
				tc.name + "/workers1": runDigest(t, ref, refTrace),
			} {
				digests[key] = sum
				if !*updateGolden && golden[key] != sum {
					t.Errorf("%s digest %s, golden %s (re-run with -update only if the change is intended)",
						key, sum, golden[key])
				}
			}
			for _, workers := range []int{2, 4} {
				got, gotTrace := runCore(t, tc.cfg, tc.w, tc.mode, workers)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("workers=%d Result diverged from serial driver:\nserial:   %+v\nparallel: %+v",
						workers, ref, got)
				}
				if !bytes.Equal(refTrace, gotTrace) {
					t.Errorf("workers=%d Perfetto export differs (%d vs %d bytes)",
						workers, len(refTrace), len(gotTrace))
				}
			}
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
	cfg.ParallelWorkers = 2
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

// TestParallelLookaheadConfig checks the config plumbing: an explicit
// lookahead reaches the domain set, and zero resolves to the default.
func TestParallelLookaheadConfig(t *testing.T) {
	cfg := config.Default()
	cfg.Parallel = true
	cfg.ParallelLookaheadNS = 250
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ds.Lookahead(); got != 250*1000 {
		t.Fatalf("lookahead = %v ps, want 250ns", got)
	}
	cfg.ParallelLookaheadNS = 0
	p, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ds.Lookahead(); got != defaultLookaheadNS*1000 {
		t.Fatalf("default lookahead = %v ps, want %dns", got, defaultLookaheadNS)
	}
}
