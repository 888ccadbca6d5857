package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/hostif"
	"repro/internal/telemetry"
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

// TestFirmwareWaitPerCore: a command's record starts when its own firmware
// task ends, on whichever core ran it. Two cores take the trims in turn;
// core 0 gets the random ones, which cost several times more than core 1's
// sequential ones, so core 1 ends its tasks first. Every command must
// therefore spend at least its own task's time in the CPU stage, which a
// command continued at another command's task end would not.
func TestFirmwareWaitPerCore(t *testing.T) {
	cfg := config.Default()
	cfg.HostIF = "pcie-g2x8"
	cfg.CPUCores = 2
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.Request
	lba := int64(0)
	for j := 0; j < 64; j++ {
		if j%2 == 0 && j > 0 {
			lba += 1 << 20 // a jump: the firmware pays the random mapping cost
		}
		reqs = append(reqs, trace.Request{Op: trace.OpTrim, LBA: lba, Bytes: 4096})
		lba += 8
	}
	var held []*hostif.Command
	p.mode = ModeFull
	if err := p.Host.Run(workload.FromRequests(reqs), func(c *hostif.Command) {
		p.Host.Hold(c)
		held = append(held, c)
		p.handleCommand(c)
	}, nil); err != nil {
		t.Fatal(err)
	}
	p.runKernel()
	if len(held) != len(reqs) || p.Host.Stats.Completed != uint64(len(reqs)) {
		t.Fatalf("%d of %d commands handled, %d completed", len(held), len(reqs), p.Host.Stats.Completed)
	}
	costs, clk := p.CPU.Config().Costs, p.CPU.Clock()
	for j, c := range held {
		own := clk.Cycles(costs.CommandCycles(j%2 == 0 && j > 0, 1))
		if cpu := c.Span.Stage(telemetry.StageCPU); cpu < own {
			t.Errorf("command %d spent %v in the CPU stage, less than its own task's %v", c.ID, cpu, own)
		}
		p.Host.Release(c)
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
