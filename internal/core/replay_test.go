package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace materialises a synthetic spec as a trace file.
func writeTrace(t testing.TB, spec workload.Spec) string {
	t.Helper()
	reqs := generate(t, spec)
	return writeTraceReqs(t, reqs)
}

// writeTraceReqs writes an explicit request list as a temporary trace file
// and returns its path.
func writeTraceReqs(t testing.TB, reqs []trace.Request) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// BenchmarkReplayDispatch measures trace-replay throughput through the full
// platform — the streaming reader, first-touch preload and live WAF
// reclassification — on the serial monolithic kernel and on the sharded
// core. One iteration replays the whole trace.
func BenchmarkReplayDispatch(b *testing.B) {
	path := writeTrace(b, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24,
		Requests: 2000, Seed: 7, WriteFrac: 0.4,
	})
	for _, bc := range []struct {
		name     string
		parallel bool
	}{
		{"serial", false},
		{"parallel", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := config.Default()
			cfg.Parallel = bc.parallel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := runWorkload(cfg, workload.Spec{TracePath: path}, ModeFull)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != 2000 {
					b.Fatalf("completed %d of 2000", res.Completed)
				}
			}
		})
	}
}

// TestReplayAdaptiveWAF: single-pass replay must reach the same WAF
// classification the deleted pre-scan produced — sequential write traces
// relax from the conservative random default once the first window fills
// (the reported WAF is the amplification actually applied, so a small
// conservative warm-up residue remains), random write traces keep the
// greedy steady-state value, without any hint in the spec.
func TestReplayAdaptiveWAF(t *testing.T) {
	mk := func(p trace.Pattern) workload.Spec {
		return workload.Spec{Pattern: p, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 600, Seed: 7}
	}
	seqPath := writeTrace(t, mk(trace.SeqWrite))
	randPath := writeTrace(t, mk(trace.RandWrite))

	seqRes, err := runWorkload(config.Default(), workload.Spec{TracePath: seqPath}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.WAF < 1 || seqRes.WAF > 1.6 {
		t.Errorf("sequential replay WAF = %v, want ~1 plus only the pre-flip warm-up residue", seqRes.WAF)
	}

	randRes, err := runWorkload(config.Default(), workload.Spec{TracePath: randPath}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if randRes.WAF <= 1.5 {
		t.Errorf("random replay WAF = %v, want the greedy steady state > 1.5", randRes.WAF)
	}
	if randRes.GCCopies == 0 {
		t.Error("random replay injected no GC traffic")
	}
	// The sequential run, having relaxed early, must inject almost no GC.
	if seqRes.GCCopies > randRes.GCCopies/4 {
		t.Errorf("sequential replay injected %d GC copies (random: %d)", seqRes.GCCopies, randRes.GCCopies)
	}

	// An explicit override always pins the model: no reclassification.
	cfg := config.Default()
	cfg.WAFOverride = 2.5
	overRes, err := runWorkload(cfg, workload.Spec{TracePath: seqPath}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if overRes.WAF != 2.5 {
		t.Errorf("override WAF = %v, want 2.5", overRes.WAF)
	}
}

// TestReplayLazyPreload: a read-heavy trace replays with no SpanBytes and
// no pre-scan; the platform preloads each read target on first touch.
func TestReplayLazyPreload(t *testing.T) {
	path := writeTrace(t, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 300, Seed: 11,
	})
	res, err := runWorkload(config.Default(), workload.Spec{TracePath: path}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 {
		t.Errorf("completed %d of 300", res.Completed)
	}
	if res.FlashReads == 0 {
		t.Error("no flash reads dispatched")
	}
	if res.Stages.NAND.Ops == 0 || res.Stages.NAND.MeanUS <= 0 {
		t.Errorf("replay reads attributed no NAND time: %+v", res.Stages.NAND)
	}
}

// TestBrokenReplayPhaseFailsRun: a replay phase that hits a parse error ends
// the run's stream there — the synthetic phase after it never reaches the
// device — and the run reports the error.
func TestBrokenReplayPhaseFailsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("0 W 0 4096\nnot a line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Spec{Phases: []workload.Spec{
		{TracePath: path, SpanBytes: 1 << 22},
		workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 200, Seed: 1},
	}}
	if _, err := p.Run(w, ModeFull); err == nil || !strings.Contains(err.Error(), "workload stream") {
		t.Fatalf("Run error = %v, want the replay phase's parse error", err)
	}
	if got := p.Host.Stats.Completed; got != 1 {
		t.Errorf("%d commands completed, want only the 1 before the parse error", got)
	}
}
