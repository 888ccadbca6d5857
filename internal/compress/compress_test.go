package compress

import (
	"testing"

	"repro/internal/sim"
)

func TestPlacementParse(t *testing.T) {
	for _, p := range []Placement{None, HostInterface, ChannelWay} {
		got, err := ParsePlacement(p.String())
		if p == None {
			got, err = ParsePlacement("none")
		}
		if err != nil || got != p {
			t.Fatalf("placement %v round trip: %v %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("middle"); err == nil {
		t.Fatal("bad placement accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Placement: None}).Validate(); err != nil {
		t.Fatalf("disabled config must validate: %v", err)
	}
	if err := (Config{Placement: HostInterface, Ratio: 0, MBps: 100}).Validate(); err == nil {
		t.Fatal("zero ratio accepted")
	}
	if err := (Config{Placement: HostInterface, Ratio: 1.5, MBps: 100}).Validate(); err == nil {
		t.Fatal("expanding ratio accepted")
	}
	if err := (Config{Placement: HostInterface, Ratio: 0.5, MBps: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestOutputBytes(t *testing.T) {
	k := sim.NewKernel()
	e, err := NewEngine(k, Config{Placement: ChannelWay, Ratio: 0.5, MBps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.OutputBytes(4096); got != 2048 {
		t.Fatalf("2:1 of 4096 = %d", got)
	}
	// Rounds up to sectors.
	if got := e.OutputBytes(4000); got != 2048 {
		t.Fatalf("rounding: %d", got)
	}
	// Never expands.
	if got := e.OutputBytes(100); got > 100 {
		t.Fatalf("expansion: %d", got)
	}
	// Pass-through when disabled.
	d, _ := NewEngine(k, Config{Placement: None})
	if d.OutputBytes(4096) != 4096 {
		t.Fatalf("disabled engine compressed")
	}
}

func TestProcessLatencyAndSerialization(t *testing.T) {
	k := sim.NewKernel()
	e, _ := NewEngine(k, Config{Placement: HostInterface, Ratio: 0.5, MBps: 400})
	var ends []sim.Time
	var outs []int64
	for i := 0; i < 2; i++ {
		outs = append(outs, e.Process(k, 4096, func() {
			ends = append(ends, k.Now())
		}))
	}
	k.RunAll()
	// 4096 B at 400 MB/s = 10.24 us per request, serialized.
	want1 := 10240 * sim.Nanosecond
	if ends[0] != want1 || ends[1] != 2*want1 {
		t.Fatalf("latencies %v, want %v and %v", ends, want1, 2*want1)
	}
	if outs[0] != 2048 || outs[1] != 2048 {
		t.Fatalf("outputs %v", outs)
	}
	if e.BytesIn != 8192 || e.BytesOut != 4096 {
		t.Fatalf("bytes in/out %d/%d", e.BytesIn, e.BytesOut)
	}
}

func TestProcessDisabledImmediate(t *testing.T) {
	k := sim.NewKernel()
	e, _ := NewEngine(k, Config{Placement: None})
	fired := false
	if out := e.Process(k, 4096, func() { fired = true }); out != 4096 {
		t.Errorf("disabled output %d", out)
	}
	k.RunAll()
	if !fired {
		t.Fatal("callback not fired")
	}
	if k.Now() != 0 {
		t.Fatalf("disabled engine consumed time: %v", k.Now())
	}
}

func TestProcessZeroBytes(t *testing.T) {
	k := sim.NewKernel()
	e, _ := NewEngine(k, Config{Placement: HostInterface, Ratio: 0.5, MBps: 400})
	fired := false
	out := e.Process(k, 0, func() { fired = true })
	k.RunAll()
	if !fired || out != 0 {
		t.Fatal("zero-byte process mishandled")
	}
}

// BenchmarkCompressOccupy measures the channel-side compressor's occupancy
// path, up to 256 writes queued on the engine: the engine runs the
// caller's own callback at the end of each window, so the steady state is
// 0 allocs/op.
func BenchmarkCompressOccupy(b *testing.B) {
	k := sim.NewKernel()
	e, err := NewEngine(k, Config{Placement: ChannelWay, Ratio: 0.5, MBps: 400})
	if err != nil {
		b.Fatal(err)
	}
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Occupy(k, 4096, nop)
		if e.srv.QueueLen() >= 256 {
			k.RunAll()
		}
	}
	k.RunAll()
}
