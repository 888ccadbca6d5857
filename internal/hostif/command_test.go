package hostif

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fullLog is the completion log the tail throughput used to keep: every
// completion's time and bytes, summed over the second half on demand. It
// is the reference tailLog must match bit for bit.
type fullLog struct {
	times []sim.Time
	bytes []int64
}

// tail is the full-log tail throughput, or fallback where the log is too
// short or spans no time.
func (f *fullLog) tail(fallback float64) float64 {
	n := len(f.times)
	if n < 2 {
		return fallback
	}
	k := int(float64(n) * 0.5)
	if k >= n-1 {
		k = n - 2
	}
	var bytes int64
	for _, b := range f.bytes[k+1:] {
		bytes += b
	}
	dur := f.times[n-1] - f.times[k]
	if dur <= 0 {
		return fallback
	}
	return float64(bytes) / dur.Seconds() / 1e6
}

// TestTailThroughputMatchesFullLog plays random completion sequences into
// the interface's tail log and the full-log reference and checks, after
// every completion, that TailThroughputMBps is bit-identical to the
// reference: through n = 0 to 3, over long runs, with runs of equal
// timestamps (including a window whose completions all share one time),
// mixed payload sizes, drive-window resets mid-run, and gaps and sizes too
// wide for the log's 32-bit fields (random gaps, and gaps and sizes either
// side of its marker).
func TestTailThroughputMatchesFullLog(t *testing.T) {
	mixed := []int64{0, 512, 4096, 4096, 131072, 1 << 20}
	wideSizes := []int64{4096, 4096, 4096, wide - 1, wide, wide + 1, 1 << 33}
	boundary := []sim.Time{wide - 1, wide, wide + 1, 1 << 32, 1, 7}
	for _, tc := range []struct {
		name    string
		n       int
		pEqual  float64 // chance a completion shares the previous one's time
		pReset  float64 // chance of a drive-window reset before a completion
		maxStep int64   // widest random gap, in ps
		steps   []sim.Time
		sizes   []int64 // payload sizes, drawn at random
	}{
		{"short", 4, 0, 0, 5000, nil, mixed},
		{"long", 20000, 0.05, 0, 5000, nil, mixed},
		{"equal-times", 5000, 0.6, 0, 3, nil, mixed},
		{"all-equal", 50, 1, 0, 1, nil, mixed},
		{"resets", 20000, 0.2, 0.002, 5000, nil, mixed},
		{"frequent-resets", 3000, 0.3, 0.3, 100, nil, mixed},
		{"wide-gaps", 20000, 0.05, 0.001, 1 << 34, nil, mixed},
		{"gap-marker", 5000, 0.1, 0, 0, boundary, mixed},
		{"wide-sizes", 5000, 0.1, 0.001, 5000, nil, wideSizes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(tc.n)))
			i, err := New(sim.NewKernel(), SATA2())
			if err != nil {
				t.Fatal(err)
			}
			var ref fullLog
			now := sim.Time(1000)
			i.mFirstSubmit, i.mHasSubmit = now, true
			check := func(step int) {
				t.Helper()
				want := ref.tail(i.ThroughputMBps())
				if got := i.TailThroughputMBps(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d, n=%d: tail log %v, full log %v", step, len(ref.times), got, want)
				}
			}
			check(-1)
			for step := 0; step < tc.n; step++ {
				if rng.Float64() < tc.pReset {
					i.resetDriveWindow()
					ref = fullLog{}
					i.mFirstSubmit, i.mHasSubmit = now, true
					check(step)
				}
				if rng.Float64() >= tc.pEqual {
					if tc.steps != nil {
						now += tc.steps[rng.IntN(len(tc.steps))]
					} else {
						now += sim.Time(1 + rng.Int64N(tc.maxStep))
					}
				}
				b := tc.sizes[rng.IntN(len(tc.sizes))]
				i.tail.add(now, b)
				i.mLastComplete = now
				i.mBytes += uint64(b)
				ref.times = append(ref.times, now)
				ref.bytes = append(ref.bytes, b)
				check(step)
			}
		})
	}
}

// TestTailLogBytesPerCompletion bounds the live heap of the tail log per
// completion it still holds (100,000 of 200,000): at most 5 B when every
// request has one size (a 4 B gap) and 16 B when each completion's size
// differs from the one before (a 4 B gap and an 8 B run in a ring of
// 131,072). A ring of 16 B time-and-size records holds 21 B in either case.
func TestTailLogBytesPerCompletion(t *testing.T) {
	const n = 200000
	for _, tc := range []struct {
		name  string
		sizes []int64
		max   float64
	}{
		{"equal-size", []int64{4096}, 5},
		{"mixed-size", []int64{512, 4096, 8192, 16384, 65536, 131072, 1 << 20}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tl := new(tailLog)
			now := sim.Time(0)
			for j := 0; j < n; j++ {
				now += sim.Time(1000 + j%7919)
				tl.add(now, tc.sizes[j%len(tc.sizes)])
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			held := n - n/2
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(held)
			runtime.KeepAlive(tl)
			t.Logf("%.2f B per logged completion", per)
			if per > tc.max {
				t.Fatalf("tail log holds %.2f B per logged completion, want at most %g", per, tc.max)
			}
		})
	}
}

// TestCommandsRecycle checks the ownership count: a drained run leaves no
// live command, a held command outlives its completion until released, and
// releasing a command more often than it was held panics.
func TestCommandsRecycle(t *testing.T) {
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 600}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	var held []*Command
	if err := i.Run(st, func(c *Command) {
		if c.ID%100 == 0 {
			i.Hold(c)
			held = append(held, c)
		}
		i.Complete(c)
	}, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if i.Stats.Completed != 600 {
		t.Fatalf("completed %d of 600", i.Stats.Completed)
	}
	if got := i.LiveCommands(); got != len(held) {
		t.Fatalf("%d live commands after drain, want the %d held", got, len(held))
	}
	for j, c := range held {
		if c.ID != int64(100*j) {
			t.Fatalf("held command %d recycled while held: ID %d", j, c.ID)
		}
		i.Release(c)
	}
	if got := i.LiveCommands(); got != 0 {
		t.Fatalf("%d live commands after every release", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a recycled command did not panic")
		}
	}()
	i.Release(held[0])
}

// TestCommandSize pins the packed command: a deep NVMe window holds tens of
// thousands at once, so each byte counts that many times over.
func TestCommandSize(t *testing.T) {
	if n := unsafe.Sizeof(Command{}); n > 176 {
		t.Fatalf("hostif.Command is %d bytes, want at most 176", n)
	}
}

// TestRecycledCommandIsReset: submit resets a recycled command field by
// field, so no figure of its previous use (completion time, stage times,
// holds) may reach the handler.
func TestRecycledCommandIsReset(t *testing.T) {
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 300}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Run(st, func(c *Command) {
		if c.CompleteAt != 0 || c.holds != 1 || c.Span.Stage(telemetry.StageCPU) != 0 {
			t.Fatalf("command %d arrived with stale state: %+v", c.ID, *c)
		}
		if c.SubmitAt == 0 || c.DataAt < c.SubmitAt || c.QueuedAt > c.SubmitAt {
			t.Fatalf("command %d arrived with times %+v", c.ID, *c)
		}
		k.Schedule(sim.Microsecond, func() {
			c.Span.Advance(telemetry.StageCPU, k.Now())
			i.Complete(c)
		})
	}, nil); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if i.Stats.Completed != 300 {
		t.Fatalf("completed %d of 300", i.Stats.Completed)
	}
}

// BenchmarkHostCommandCycle plays one interface over a long stream with a
// device that completes at once: every command runs submit, rx, Complete,
// tx and retire. Commands recycle, so the cycle allocates nothing per
// command; the tail log takes one 4 KiB chunk of gaps per 2,048
// completions (it holds half of them, and reuses each drained chunk),
// which rounds to 0 allocs/op on a long run.
func BenchmarkHostCommandCycle(b *testing.B) {
	st, err := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 30, Requests: b.N}.Stream()
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := i.Run(st, func(c *Command) { i.Complete(c) }, nil); err != nil {
		b.Fatal(err)
	}
	k.RunAll()
	if i.Stats.Completed != uint64(b.N) {
		b.Fatalf("completed %d of %d", i.Stats.Completed, b.N)
	}
}
