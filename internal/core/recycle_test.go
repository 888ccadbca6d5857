package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCommandsComeBackAtDrain drives every last step of a command record —
// host-ideal completion (no record), host+DDR reads and writes, cached and
// uncached writes, trim and flush, compressed writes that program no page
// under either buffer policy, and mapper zero-fill reads — and checks at
// drain that every host command and every record came back exactly once:
// a second release or free panics, and the live counts read 0.
func TestCommandsComeBackAtDrain(t *testing.T) {
	const n = 600
	seqWrite := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: n, Seed: 7}
	randRead := workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: n, Seed: 7}
	mixed := seqWrite
	mixed.WriteFrac = 0.5
	noCache := config.Default()
	noCache.CachePolicy = "nocache"
	comp := config.Default()
	comp.CompressPlacement = "channel"
	comp.CompressRatio = 0.5
	compNoCache := comp
	compNoCache.CachePolicy = "nocache"
	mapper := config.Vertex()
	mapper.FTLMode = "mapper"
	sharded := config.Default()
	sharded.Parallel = true

	var trimFlush []trace.Request
	for j := int64(0); j < 40; j++ {
		trimFlush = append(trimFlush,
			trace.Request{Op: trace.OpWrite, LBA: 8 * j, Bytes: 4096},
			trace.Request{Op: trace.OpTrim, LBA: 8 * j, Bytes: 4096},
			trace.Request{Op: trace.OpFlush},
			trace.Request{Op: trace.OpRead, LBA: 8 * j, Bytes: 8192})
	}

	for _, tc := range []struct {
		name  string
		cfg   config.Platform
		mode  Mode
		w     workload.Spec
		reqs  []trace.Request // replayed instead of w when set
		check func(t *testing.T, res Result)
	}{
		{name: "host-ideal", cfg: config.Default(), mode: ModeHostIdeal, w: mixed},
		{name: "host-ddr-write", cfg: config.Default(), mode: ModeHostDDR, w: seqWrite},
		{name: "host-ddr-read", cfg: config.Default(), mode: ModeHostDDR, w: randRead},
		{name: "cache-write", cfg: config.Default(), mode: ModeFull, w: mixed},
		{name: "nocache-write", cfg: noCache, mode: ModeFull, w: mixed},
		{name: "sharded-cache-write", cfg: sharded, mode: ModeFull, w: mixed},
		{name: "trim-flush", cfg: mapper, mode: ModeFull, reqs: trimFlush},
		{name: "compressed-cache", cfg: comp, mode: ModeFull, w: seqWrite, check: absorbsPages},
		{name: "compressed-nocache", cfg: compNoCache, mode: ModeFull, w: seqWrite, check: absorbsPages},
		{name: "mapper-zero-fill", cfg: mapper, mode: ModeFull, w: randRead, check: func(t *testing.T, res Result) {
			if res.FlashReads != 0 {
				t.Errorf("%d flash reads on an unwritten mapper: the reads were not zero-filled", res.FlashReads)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(n)
			var res Result
			if tc.reqs != nil {
				want = uint64(len(tc.reqs))
				res, err = p.playStream(workload.FromRequests(tc.reqs), tc.mode)
			} else {
				res, err = p.Run(tc.w, tc.mode)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != want {
				t.Fatalf("completed %d of %d commands", res.Completed, want)
			}
			if live := p.Host.LiveCommands(); live != 0 {
				t.Errorf("%d host commands never released", live)
			}
			if p.liveRecs != 0 {
				t.Errorf("%d command records never freed", p.liveRecs)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// absorbsPages checks that 2:1 compression left about every other 4 KB
// write without a page to program.
func absorbsPages(t *testing.T, res Result) {
	t.Helper()
	if res.UserPages*10 > res.Completed*6 {
		t.Errorf("%d pages programmed for %d writes: compression absorbed too few", res.UserPages, res.Completed)
	}
}
