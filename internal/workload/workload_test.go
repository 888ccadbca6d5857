package workload

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// drain materialises a generator for comparison in tests.
func drain(t *testing.T, g Generator) []trace.Request {
	t.Helper()
	var out []trace.Request
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, req)
	}
	if err := g.(*Stream).Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

// generate compiles s and drains its whole stream.
func generate(t *testing.T, s Spec) []trace.Request {
	t.Helper()
	g, err := s.Generator()
	if err != nil {
		t.Fatal(err)
	}
	defer g.(*Stream).Close()
	return drain(t, g)
}

// TestPatternStreamsByteIdentical is the tentpole regression: the four paper
// patterns must stream byte-identical requests to the legacy materialising
// generator for the same seed.
func TestPatternStreamsByteIdentical(t *testing.T) {
	for _, pat := range []trace.Pattern{trace.SeqWrite, trace.SeqRead, trace.RandWrite, trace.RandRead} {
		for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
			legacy := trace.WorkloadSpec{
				Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 2000, Seed: seed,
			}
			want, err := legacy.Generate()
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Pattern: pat, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 2000, Seed: seed}
			g, err := spec.Generator()
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, g)
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: %d requests, want %d", pat, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v seed %d: request %d = %+v, legacy %+v", pat, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGeneratorResetReplaysIdentically: a stream is a deterministic
// function of its spec, so compiling the spec again replays it identically.
func TestGeneratorResetReplaysIdentically(t *testing.T) {
	spec := Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 500, Seed: 3,
		WriteFrac: 0.3, Skew: Skew{Kind: SkewZipf, Theta: 0.99},
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 50000},
	}
	var runs [2][]trace.Request
	for i := range runs {
		g, err := spec.Generator()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = drain(t, g)
	}
	a, b := runs[0], runs[1]
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("second compile diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMixedWriteFraction(t *testing.T) {
	spec := Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 4000, Seed: 1, WriteFrac: 0.3}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range drain(t, g) {
		if r.Op == trace.OpWrite {
			writes++
		}
	}
	frac := float64(writes) / 4000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction %v, want ~0.3", frac)
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	blocks := int64(1 << 12)
	spec := Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: blocks * 4096,
		Requests: 20000, Seed: 9, Skew: Skew{Kind: SkewZipf, Theta: 0.99},
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, r := range drain(t, g) {
		if r.LBA < 0 || r.EndLBA()*trace.SectorSize > spec.SpanBytes {
			t.Fatalf("request outside span: %+v", r)
		}
		counts[r.LBA]++
	}
	// Zipf(0.99): the single most popular block takes a few percent of all
	// accesses; uniform would give each block ~0.024%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 20000/100 {
		t.Fatalf("hottest block has %d of 20000 accesses; zipf not skewed", max)
	}
	// And the mass is scattered, not all on one block.
	if len(counts) < 500 {
		t.Fatalf("only %d distinct blocks touched", len(counts))
	}
}

func TestHotspotSkew(t *testing.T) {
	blocks := int64(1000)
	spec := Spec{
		Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: blocks * 4096,
		Requests: 10000, Seed: 4, Skew: Skew{Kind: SkewHotspot, HotFrac: 0.2, HotProb: 0.8},
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	hotLimit := int64(float64(blocks)*0.2) * (4096 / trace.SectorSize)
	hot := 0
	for _, r := range drain(t, g) {
		if r.LBA < hotLimit {
			hot++
		}
	}
	frac := float64(hot) / 10000
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("hot fraction %v, want ~0.8", frac)
	}
}

func TestSequentialPatternWithSkewGoesRandom(t *testing.T) {
	// Skew forces random addressing even on a sequential base pattern.
	spec := Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22,
		Requests: 200, Seed: 2, Skew: Skew{Kind: SkewZipf, Theta: 0.9},
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	reqs := drain(t, g)
	sequential := true
	for i := 1; i < len(reqs); i++ {
		if reqs[i].LBA != reqs[i-1].LBA+8 {
			sequential = false
			break
		}
	}
	if sequential {
		t.Fatal("zipf-skewed stream is still sequential")
	}
	if !spec.RandomWrites() {
		t.Fatal("skewed writes not classified as random for the WAF model")
	}
}

func TestPoissonArrivals(t *testing.T) {
	spec := Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22,
		Requests: 5000, Seed: 11, Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 10000},
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	reqs := drain(t, g)
	last := 0.0
	for i, r := range reqs {
		if r.ArrivalUS < last {
			t.Fatalf("arrival %d went backwards: %v after %v", i, r.ArrivalUS, last)
		}
		last = r.ArrivalUS
	}
	// 10k IOPS -> mean inter-arrival 100us -> 5000 requests in ~500ms.
	meanGap := last / float64(len(reqs))
	if meanGap < 85 || meanGap > 115 {
		t.Fatalf("mean inter-arrival %v us, want ~100", meanGap)
	}
}

func TestOnOffArrivalsBurst(t *testing.T) {
	spec := Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22,
		Requests: 2000, Seed: 5,
		Arrival: Arrival{Kind: ArrivalOnOff, RateIOPS: 100000, OnMS: 1, OffMS: 10},
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	reqs := drain(t, g)
	// ~100 arrivals per 1ms ON window, then a >=10ms silence: the stream
	// must contain many large gaps.
	gaps := 0
	for i := 1; i < len(reqs); i++ {
		if d := reqs[i].ArrivalUS - reqs[i-1].ArrivalUS; d >= 10000 {
			gaps++
		} else if d < 0 {
			t.Fatalf("arrival went backwards at %d", i)
		}
	}
	if gaps < 10 {
		t.Fatalf("only %d OFF gaps in %d requests; bursts missing", gaps, len(reqs))
	}
}

func TestPhasesConcatenateAndOffsetArrivals(t *testing.T) {
	pre := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 100, Seed: 1,
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 100000}}
	measure := Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 50, Seed: 2,
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 100000}}
	spec := Spec{Phases: []Spec{pre, measure}}
	if got := spec.TotalRequests(); got != 150 {
		t.Fatalf("TotalRequests = %d", got)
	}
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	reqs := drain(t, g)
	if len(reqs) != 150 {
		t.Fatalf("phased stream %d requests", len(reqs))
	}
	for i := 0; i < 100; i++ {
		if reqs[i].Op != trace.OpWrite {
			t.Fatalf("phase 1 request %d is %v", i, reqs[i].Op)
		}
	}
	for i := 100; i < 150; i++ {
		if reqs[i].Op != trace.OpRead {
			t.Fatalf("phase 2 request %d is %v", i, reqs[i].Op)
		}
	}
	// Phase 2's open-loop clock continues after phase 1's last arrival.
	if reqs[100].ArrivalUS <= reqs[99].ArrivalUS {
		t.Fatalf("phase 2 arrival %v does not continue after phase 1 end %v",
			reqs[100].ArrivalUS, reqs[99].ArrivalUS)
	}
	// Compiling the spec again replays the whole scenario.
	g, err = spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	again := drain(t, g)
	if len(again) != len(reqs) {
		t.Fatalf("second compile played %d requests, want %d", len(again), len(reqs))
	}
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatalf("phased second compile diverged at %d", i)
		}
	}
}

func TestReplayStreamsTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	want := []trace.Request{
		{ArrivalUS: 0, Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 12.5, Op: trace.OpRead, LBA: 64, Bytes: 4096},
		{ArrivalUS: 40, Op: trace.OpTrim, LBA: 128, Bytes: 8192},
		{ArrivalUS: 41, Op: trace.OpFlush, LBA: 0, Bytes: 0},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, want); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := Spec{TracePath: path, SpanBytes: 1 << 20}
	g, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := drain(t, g)
	if len(got) != len(want) {
		t.Fatalf("replayed %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReplaySurfacesParseErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(path, []byte("0 W 0 4096\nnot a line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := OpenReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, ok := g.Next(); !ok {
		t.Fatal("first request rejected")
	}
	if _, ok := g.Next(); ok {
		t.Fatal("malformed line produced a request")
	}
	if g.Err() == nil {
		t.Fatal("parse error not surfaced")
	}
}

// TestGenerateMatchesGenerator holds the two ways to compile a spec to the
// same requests: Stream, which the players drain, and Generator, the
// pull-only view that trace writers use.
func TestGenerateMatchesGenerator(t *testing.T) {
	spec := Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 300, Seed: 8}
	st, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	reqs := drain(t, st)
	g, err := spec.Generator()
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(t, g)
	if len(reqs) != 300 || len(streamed) != 300 {
		t.Fatalf("lengths %d/%d", len(reqs), len(streamed))
	}
	for i := range reqs {
		if reqs[i] != streamed[i] {
			t.Fatalf("Stream diverged from Generator at %d", i)
		}
	}
}

func TestParseSkew(t *testing.T) {
	cases := map[string]Skew{
		"uniform":         {},
		"":                {},
		"zipf":            {Kind: SkewZipf, Theta: 0.99},
		"zipf:0.8":        {Kind: SkewZipf, Theta: 0.8},
		"hotspot":         {Kind: SkewHotspot, HotFrac: 0.2, HotProb: 0.8},
		"hotspot:0.1:0.9": {Kind: SkewHotspot, HotFrac: 0.1, HotProb: 0.9},
	}
	for in, want := range cases {
		got, err := ParseSkew(in)
		if err != nil || got != want {
			t.Fatalf("ParseSkew(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, bad := range []string{"zipf:2", "zipf:x", "hotspot:0.5", "hotspot:2:0.5", "wat"} {
		if _, err := ParseSkew(bad); err == nil {
			t.Fatalf("ParseSkew(%q) accepted", bad)
		}
	}
	// String() round-trips through ParseSkew.
	for _, sk := range []Skew{{}, {Kind: SkewZipf, Theta: 0.95}, {Kind: SkewHotspot, HotFrac: 0.25, HotProb: 0.75}} {
		back, err := ParseSkew(sk.String())
		if err != nil || back != sk {
			t.Fatalf("skew round trip %v -> %v (%v)", sk, back, err)
		}
	}
}

func TestParseArrival(t *testing.T) {
	cases := map[string]Arrival{
		"closed":          {},
		"":                {},
		"poisson:50000":   {Kind: ArrivalPoisson, RateIOPS: 50000},
		"onoff:8000:5:20": {Kind: ArrivalOnOff, RateIOPS: 8000, OnMS: 5, OffMS: 20},
	}
	for in, want := range cases {
		got, err := ParseArrival(in)
		if err != nil || got != want {
			t.Fatalf("ParseArrival(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, bad := range []string{"poisson", "poisson:-1", "onoff:100:1", "onoff:0:1:1", "wat:3"} {
		if _, err := ParseArrival(bad); err == nil {
			t.Fatalf("ParseArrival(%q) accepted", bad)
		}
	}
	for _, a := range []Arrival{{}, {Kind: ArrivalPoisson, RateIOPS: 1000}, {Kind: ArrivalOnOff, RateIOPS: 100, OnMS: 1, OffMS: 2}} {
		back, err := ParseArrival(a.String())
		if err != nil || back != a {
			t.Fatalf("arrival round trip %v -> %v (%v)", a, back, err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Pattern: trace.SeqWrite, BlockSize: 0, SpanBytes: 1 << 20, Requests: 1},
		{Pattern: trace.SeqWrite, BlockSize: 100, SpanBytes: 1 << 20, Requests: 1},
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1024, Requests: 1},
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 0},
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1, WriteFrac: 1.5},
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1, Skew: Skew{Kind: SkewZipf, Theta: 2}},
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1, Arrival: Arrival{Kind: ArrivalPoisson}},
		{TracePath: "x", Phases: []Spec{{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1}}},
		{Phases: []Spec{{Phases: []Spec{{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1}}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, s)
		}
	}
	good := Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 10,
		WriteFrac: 0.5, Skew: Skew{Kind: SkewHotspot, HotFrac: 0.1, HotProb: 0.9},
		Arrival: Arrival{Kind: ArrivalOnOff, RateIOPS: 1000, OnMS: 1, OffMS: 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecClassification(t *testing.T) {
	w := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1}
	if !w.Simple() || !w.HasWrites() || w.RandomWrites() {
		t.Fatalf("plain SW misclassified: %+v", w)
	}
	mixed := w
	mixed.WriteFrac = 0.5
	if mixed.Simple() || !mixed.HasWrites() {
		t.Fatalf("mixed misclassified")
	}
	r := Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1}
	if r.HasWrites() || r.RandomWrites() {
		t.Fatalf("RR misclassified")
	}
	replay := Spec{TracePath: "x", SpanBytes: 1 << 20}
	if replay.Simple() || !replay.RandomWrites() || replay.TotalRequests() != -1 {
		t.Fatalf("replay misclassified")
	}
	open := r
	open.Arrival = Arrival{Kind: ArrivalPoisson, RateIOPS: 1000}
	chain := Spec{Phases: []Spec{w, open}}
	if !chain.HasWrites() || chain.RandomWrites() || chain.TotalRequests() != 2 || chain.TotalBytes() != 8192 {
		t.Fatalf("SW -> open RR chain misclassified")
	}
	if withReplay := (Spec{Phases: []Spec{w, replay}}); withReplay.TotalRequests() != -1 || withReplay.TotalBytes() != -1 {
		t.Fatalf("a chain with a replay phase has unknown totals")
	}
}

func TestPhasedRebasesOpenClockAfterClosedPhase(t *testing.T) {
	pre := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 5, Seed: 1}
	meas := Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 5, Seed: 2,
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 100000}}
	g, err := Spec{Phases: []Spec{pre, meas}}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	// Fake simulation clock: the closed-loop phase is device-paced and ends
	// at 50 ms of simulated time.
	now := 0.0
	g.SetClock(func() float64 { return now })
	for i := 0; i < 5; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatal("precondition phase ended early")
		}
		now += 10000 // 10 ms per device-paced request
	}
	req, ok := g.Next()
	if !ok {
		t.Fatal("measure phase missing")
	}
	// Without the rebase the first measure arrival would be ~10us; with it
	// the open-loop clock starts at the 50 ms boundary.
	if req.ArrivalUS < 50000 {
		t.Fatalf("first measure arrival %v us; open-loop clock not rebased to the phase boundary", req.ArrivalUS)
	}
}

func TestScanTrace(t *testing.T) {
	dir := t.TempDir()
	seqPath := filepath.Join(dir, "seq.trace")
	seq := generate(t, Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 500, Seed: 1})
	seq = append(seq, trace.Request{Op: trace.OpRead, LBA: 1 << 16, Bytes: 4096})
	f, _ := os.Create(seqPath)
	if err := trace.Write(f, seq); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err := ScanTrace(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Requests != 501 || info.Writes != 500 || info.RandomWrites {
		t.Fatalf("sequential scan: %+v", info)
	}

	randPath := filepath.Join(dir, "rand.trace")
	rnd := generate(t, Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 500, Seed: 1})
	f, _ = os.Create(randPath)
	if err := trace.Write(f, rnd); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err = ScanTrace(randPath)
	if err != nil || !info.RandomWrites {
		t.Fatalf("random scan: %+v, %v", info, err)
	}

	if _, err := ScanTrace(filepath.Join(dir, "missing.trace")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestHasReplayDetection(t *testing.T) {
	if !(Spec{TracePath: "x"}).HasReplay() {
		t.Fatal("bare replay not flagged")
	}
	if (Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1}).HasReplay() {
		t.Fatal("synthetic spec flagged as replay")
	}
	phased := Spec{Phases: []Spec{
		{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 1},
		{TracePath: "x"},
	}}
	if !phased.HasReplay() {
		t.Fatal("replay phase not flagged")
	}
}

func TestCanonicalTracksTraceFileChanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	if err := os.WriteFile(path, []byte("0 W 0 4096\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{TracePath: path, SpanBytes: 1 << 20}
	before := spec.Canonical()
	// Rewriting the file must change the canonical string (and thus any
	// content-hash cache key built from it).
	if err := os.WriteFile(path, []byte("0 W 0 4096\n0 R 0 4096\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if after := spec.Canonical(); after == before {
		t.Fatal("canonical string unchanged after the trace file was rewritten")
	}
}

func TestPhasedKeepsBacklogAcrossOpenPhases(t *testing.T) {
	// Open -> open: the declared arrival timeline stands even when the
	// device has fallen behind (sim clock past the last arrival); the
	// backlog must keep queueing into the next phase, not be erased.
	p1 := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 10, Seed: 1,
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 100000}} // ~100us span
	p2 := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 10, Seed: 2,
		Arrival: Arrival{Kind: ArrivalPoisson, RateIOPS: 100000}}
	g, err := Spec{Phases: []Spec{p1, p2}}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	g.SetClock(func() float64 { return 50000 }) // device 50ms behind
	var last float64
	for i := 0; i < 10; i++ {
		req, _ := g.Next()
		last = req.ArrivalUS
	}
	req, ok := g.Next()
	if !ok {
		t.Fatal("phase 2 missing")
	}
	if req.ArrivalUS >= 50000 {
		t.Fatalf("open->open boundary jumped to the clock (%v us); backlog erased", req.ArrivalUS)
	}
	if req.ArrivalUS <= last {
		t.Fatalf("phase 2 arrival %v does not continue after phase 1 end %v", req.ArrivalUS, last)
	}
}

// TestFailedPhaseEndsChain: a replay phase that stops on a parse error ends
// the whole chain, so the phases after it never play and Err reports why.
func TestFailedPhaseEndsChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("0 W 0 4096\nnot a line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Spec{Phases: []Spec{{TracePath: path}, Spec{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 5, Seed: 1}}}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	if n != 1 {
		t.Errorf("chain played %d requests past a failed phase, want only the 1 before the error", n)
	}
	if st.Err() == nil {
		t.Error("parse error not surfaced")
	}
	if _, ok := st.Next(); ok {
		t.Error("a failed chain resumed")
	}
}
