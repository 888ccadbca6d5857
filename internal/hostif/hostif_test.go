package hostif

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestConfigs(t *testing.T) {
	s := SATA2()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.QueueDepth != 32 {
		t.Fatalf("NCQ depth %d", s.QueueDepth)
	}
	p, err := PCIe(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.LineMBps != 4000 {
		t.Fatalf("gen2 x8 line rate %v", p.LineMBps)
	}
	if p.QueueDepth != 65536 {
		t.Fatalf("NVMe queue depth %d", p.QueueDepth)
	}
	if _, err := PCIe(4, 8); err == nil {
		t.Fatal("gen4 accepted")
	}
	if _, err := PCIe(2, 3); err == nil {
		t.Fatal("3 lanes accepted")
	}
}

// TestParse pins which spellings select an interface: the canonical names
// and the SATA aliases only. Trailing text, padding and non-canonical
// numbers are rejected rather than parsed as a neighbouring design point.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // canonical Config.Name, "" for a rejected name
	}{
		{"sata2", "sata2"},
		{"sata", "sata2"},
		{"", "sata2"},
		{"pcie-g1x1", "pcie-g1x1"},
		{"pcie-g2x8", "pcie-g2x8"},
		{"pcie-g3x16", "pcie-g3x16"},
		{"scsi", ""},
		{"pcie-g2x8x4", ""},
		{"pcie-g2x8foo", ""},
		{"pcie-g2x8 ", ""},
		{" pcie-g2x8", ""},
		{"pcie-g02x8", ""},
		{"pcie-g+2x8", ""},
		{"pcie-g2x08", ""},
		{"pcie-g2 x8", ""},
		{"pcie-g4x8", ""},
		{"pcie-g2x3", ""},
		{"pcie-g2x", ""},
		{"sata2 ", ""},
		{"SATA2", ""},
	} {
		c, err := Parse(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("Parse(%q) accepted as %q", tc.name, c.Name)
		case tc.want != "" && err != nil:
			t.Errorf("Parse(%q): %v", tc.name, err)
		case tc.want != "" && c.Name != tc.want:
			t.Errorf("Parse(%q) = %q, want %q", tc.name, c.Name, tc.want)
		}
	}
	if c, _ := Parse("pcie-g3x4"); c.LineMBps != 985*4 {
		t.Fatalf("parse pcie: %+v", c)
	}
}

// FuzzHostParse checks that every accepted name is canonical — the
// Config's own Name or a SATA alias — and re-parses from that Name to the
// same Config.
func FuzzHostParse(f *testing.F) {
	for _, name := range []string{"sata2", "sata", "", "pcie-g1x1", "pcie-g2x8", "pcie-g3x16",
		"pcie-g2x8x4", "pcie-g2x8foo", "pcie-g2x8 ", "pcie-g02x8", "pcie-g4x8"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		c, err := Parse(name)
		if err != nil {
			return
		}
		if name != c.Name && name != "sata" && name != "" {
			t.Fatalf("Parse(%q) accepted a non-canonical name for %q", name, c.Name)
		}
		back, err := Parse(c.Name)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its name %q does not re-parse: %v", name, c.Name, err)
		}
		if back != c {
			t.Fatalf("Parse(%q) = %+v, re-parse of %q = %+v", name, c, c.Name, back)
		}
	})
}

func TestIdealRates(t *testing.T) {
	s := SATA2()
	w := s.IdealMBps(4096, true)
	r := s.IdealMBps(4096, false)
	// SATA II 4 KB ideal with NCQ protocol turnarounds lands near the
	// ~240 MB/s real drives sustain (well below the 300 MB/s line rate).
	if w < 225 || w > 260 {
		t.Fatalf("SATA ideal write %v MB/s", w)
	}
	if r < 225 || r > 260 {
		t.Fatalf("SATA ideal read %v MB/s", r)
	}
	p, _ := PCIe(2, 8)
	pw := p.IdealMBps(4096, true)
	if pw < 2000 || pw > 3400 {
		t.Fatalf("PCIe gen2 x8 ideal %v MB/s", pw)
	}
	// The paper's premise: PCIe removes the host bottleneck (10x SATA).
	if pw < 8*w {
		t.Fatalf("PCIe ideal %v not an order beyond SATA %v", pw, w)
	}
}

// instantDevice completes every command immediately (the host-ideal sink).
func instantDevice(k *sim.Kernel, i *Interface) func(*Command) {
	return func(c *Command) {
		k.Schedule(0, func() { i.Complete(c) })
	}
}

func TestTracePlayerRunsAll(t *testing.T) {
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 100}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	if err := i.Run(st, instantDevice(k, i), func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if !drained {
		t.Fatal("drain callback missing")
	}
	if i.Stats.Completed != 100 || i.Stats.BytesWritten != 100*4096 {
		t.Fatalf("stats %+v", i.Stats)
	}
	if i.Outstanding() != 0 {
		t.Fatalf("outstanding %d", i.Outstanding())
	}
}

func TestHostIdealThroughputMatchesAnalytic(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	st, _ := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 2000}.Stream()
	i.Run(st, instantDevice(k, i), nil)
	k.RunAll()
	got := i.ThroughputMBps()
	want := i.cfg.IdealMBps(4096, true)
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("host-ideal sim %v MB/s vs analytic %v", got, want)
	}
}

func TestReadsUseTxWire(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	st, _ := workload.Spec{Pattern: trace.SeqRead, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 500}.Stream()
	i.Run(st, instantDevice(k, i), nil)
	k.RunAll()
	if i.Stats.BytesRead != 500*4096 {
		t.Fatalf("read bytes %d", i.Stats.BytesRead)
	}
	got := i.ThroughputMBps()
	want := i.cfg.IdealMBps(4096, false)
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("read throughput %v vs %v", got, want)
	}
}

func TestQueueWindowLimitsOutstanding(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	st, _ := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 200}.Stream()
	// Slow device: commands pile up at the window.
	live, livePeak := 0, 0
	i.Run(st, func(c *Command) {
		live++
		if live > livePeak {
			livePeak = live
		}
		k.Schedule(5*sim.Millisecond, func() {
			live--
			i.Complete(c)
		})
	}, nil)
	k.RunAll()
	if i.Stats.QueuePeak > 32 || livePeak > 32 {
		t.Fatalf("queue peak %d / live peak %d exceeds NCQ depth", i.Stats.QueuePeak, livePeak)
	}
	if i.Stats.QueuePeak < 30 {
		t.Fatalf("queue peak %d: window underused by a slow device", i.Stats.QueuePeak)
	}
	if i.Stats.Completed != 200 {
		t.Fatalf("completed %d", i.Stats.Completed)
	}
}

func TestQueueDepthThroughputWall(t *testing.T) {
	// The Fig. 3 mechanism in isolation: a device with high internal
	// latency but massive parallelism is throttled by a 32-deep window
	// and liberated by a 64K window.
	run := func(cfg Config) float64 {
		k := sim.NewKernel()
		i, _ := New(k, cfg)
		st, _ := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 3000}.Stream()
		i.Run(st, func(c *Command) {
			// 3 ms device latency, unlimited concurrency (512 dies).
			k.Schedule(3*sim.Millisecond, func() { i.Complete(c) })
		}, nil)
		k.RunAll()
		return i.ThroughputMBps()
	}
	sata := run(SATA2())
	pcie, _ := PCIe(2, 8)
	nvme := run(pcie)
	// SATA: 32 cmds x 4 KiB / 3 ms = ~44 MB/s.
	if sata < 30 || sata > 60 {
		t.Fatalf("SATA window-bound throughput %v MB/s", sata)
	}
	// NVMe must blow past the wall by an order of magnitude.
	if nvme < 10*sata {
		t.Fatalf("NVMe %v vs SATA %v: queue depth wall not reproduced", nvme, sata)
	}
}

func TestArrivalTimesRespected(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	reqs := []trace.Request{
		{ArrivalUS: 0, Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 1000, Op: trace.OpWrite, LBA: 8, Bytes: 4096},
	}
	var submits []sim.Time
	i.Run(workload.FromRequests(reqs), func(c *Command) {
		submits = append(submits, c.SubmitAt)
		i.Complete(c)
	}, nil)
	k.RunAll()
	if len(submits) != 2 {
		t.Fatalf("submits %d", len(submits))
	}
	if submits[1] < sim.FromMicroseconds(1000) {
		t.Fatalf("second command submitted at %v before its arrival time", submits[1])
	}
}

func TestTrimAndFlushPassThrough(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	reqs := []trace.Request{
		{Op: trace.OpTrim, LBA: 0, Bytes: 1 << 20},
		{Op: trace.OpFlush},
	}
	var seen []trace.Op
	i.Run(workload.FromRequests(reqs), func(c *Command) {
		seen = append(seen, c.Req.Op)
		i.Complete(c)
	}, nil)
	k.RunAll()
	if len(seen) != 2 || seen[0] != trace.OpTrim || seen[1] != trace.OpFlush {
		t.Fatalf("ops %v", seen)
	}
	if i.Stats.Completed != 2 {
		t.Fatalf("completed %d", i.Stats.Completed)
	}
}

func TestRunValidation(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	if err := i.Run(nil, nil, nil); err == nil {
		t.Fatal("nil stream accepted")
	}
	st := workload.FromRequests(nil)
	if err := i.Run(st, func(*Command) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := i.Run(st, func(*Command) {}, nil); err == nil {
		t.Fatal("double run accepted")
	}
	bad := SATA2()
	bad.QueueDepth = 0
	if _, err := New(k, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	st, _ := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 200}.Stream()
	i.Run(st, func(c *Command) {
		k.Schedule(100*sim.Microsecond, func() { i.Complete(c) })
	}, nil)
	k.RunAll()
	all := i.Latency().All()
	if all.MeanUS < 100 {
		t.Fatalf("mean latency %v us below device latency", all.MeanUS)
	}
	if all.P50US > all.P99US {
		t.Fatalf("p50 %v us > p99 %v us", all.P50US, all.P99US)
	}
	// Empty interface: zeroes, no panic.
	j, _ := New(sim.NewKernel(), SATA2())
	if e := j.Latency().All(); e.MeanUS != 0 || e.P99US != 0 {
		t.Fatalf("empty percentiles %+v", e)
	}
}

func TestInterfaceConsumesWorkloadGenerator(t *testing.T) {
	// The trace player pulls a mixed stream straight from the compiled
	// workload stream and the latency collector splits completions by op
	// class.
	k := sim.NewKernel()
	i, _ := New(k, SATA2())
	spec := workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22,
		Requests: 400, Seed: 3, WriteFrac: 0.5,
	}
	st, err := spec.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Run(st, instantDevice(k, i), nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if i.Stats.Completed != 400 {
		t.Fatalf("completed %d", i.Stats.Completed)
	}
	r, w, all := i.Latency().Read(), i.Latency().Write(), i.Latency().All()
	if r.Ops == 0 || w.Ops == 0 || r.Ops+w.Ops != 400 || all.Ops != 400 {
		t.Fatalf("latency classes: %d reads + %d writes, %d all", r.Ops, w.Ops, all.Ops)
	}
	if r.P99US < r.P50US || w.P99US < w.P50US {
		t.Fatalf("percentiles not monotonic: %+v / %+v", r, w)
	}
}

func TestOpenLoopLatencyIncludesQueueWait(t *testing.T) {
	// Two requests arrive together; a 1 ms device and a depth-1 window mean
	// the second waits a full service time at the window. Queued-to-complete
	// latency must show that wait.
	cfg := SATA2()
	cfg.QueueDepth = 1
	k := sim.NewKernel()
	i, _ := New(k, cfg)
	reqs := []trace.Request{
		{ArrivalUS: 10, Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 10, Op: trace.OpWrite, LBA: 8, Bytes: 4096},
	}
	i.Run(workload.FromRequests(reqs), func(c *Command) {
		k.Schedule(sim.Millisecond, func() { i.Complete(c) })
	}, nil)
	k.RunAll()
	all := i.Latency().All()
	// First request: ~1 ms service. Second: ~1 ms window wait + ~1 ms
	// service. Mean ~1.5 ms, max ~2 ms.
	if all.MeanUS < 1400 {
		t.Fatalf("mean %v us does not include window queueing", all.MeanUS)
	}
	if all.MaxUS < 1900 {
		t.Fatalf("max latency %v us does not include window queueing", all.MaxUS)
	}
}

func TestOpenLoopLatencyIncludesArrivalBacklog(t *testing.T) {
	// Three requests all arrive at t=10us against a depth-1 window and a
	// 1 ms device: the third is pulled only ~2 ms after its arrival. Its
	// latency must count from the arrival, not from the late pull.
	cfg := SATA2()
	cfg.QueueDepth = 1
	k := sim.NewKernel()
	i, _ := New(k, cfg)
	reqs := []trace.Request{
		{ArrivalUS: 10, Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 10, Op: trace.OpWrite, LBA: 8, Bytes: 4096},
		{ArrivalUS: 10, Op: trace.OpWrite, LBA: 16, Bytes: 4096},
	}
	i.Run(workload.FromRequests(reqs), func(c *Command) {
		k.Schedule(sim.Millisecond, func() { i.Complete(c) })
	}, nil)
	k.RunAll()
	// Third completion at ~3 ms, arrival 10us: latency ~3 ms.
	if worst := i.Latency().All().MaxUS; worst < 2900 {
		t.Fatalf("max latency %v us does not include the arrival backlog", worst)
	}
}
