package hostif

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stubSource is a MultiSource over workload streams with a scripted (or
// default first-ready) arbiter and a log of every Pick call.
type stubSource struct {
	names   []string
	depths  []int
	streams []*workload.Stream

	pick  func(ready []int) int
	picks [][]int
}

// newStubSource is a stub with one request-list stream per queue.
func newStubSource(queues ...[]trace.Request) *stubSource {
	streams := make([]*workload.Stream, len(queues))
	for i, q := range queues {
		streams[i] = workload.FromRequests(q)
	}
	return stubOf(streams...)
}

// stubOf is a stub over the given streams, one queue each.
func stubOf(streams ...*workload.Stream) *stubSource {
	s := &stubSource{streams: streams}
	for i := range streams {
		s.names = append(s.names, string(rune('a'+i)))
		s.depths = append(s.depths, 0)
	}
	return s
}

func (s *stubSource) NumQueues() int                   { return len(s.streams) }
func (s *stubSource) QueueName(q int) string           { return s.names[q] }
func (s *stubSource) QueueDepth(q int) int             { return s.depths[q] }
func (s *stubSource) Stream(q int) *workload.Stream    { return s.streams[q] }
func (s *stubSource) Next(q int) (trace.Request, bool) { return s.streams[q].Next() }

func (s *stubSource) Pick(ready []int) int {
	cp := append([]int(nil), ready...)
	s.picks = append(s.picks, cp)
	if s.pick != nil {
		return s.pick(ready)
	}
	return ready[0]
}

// reqs builds n closed-loop single-block requests of the given op.
func reqs(op trace.Op, n int) []trace.Request {
	out := make([]trace.Request, n)
	for i := range out {
		out[i] = trace.Request{Op: op, LBA: int64(i * 8), Bytes: 4096}
	}
	return out
}

// runMulti drives a multi-queue run to completion on an instant device.
func runMulti(t *testing.T, cfg Config, src MultiSource) (*Interface, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	i, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	if err := i.RunMulti(src, instantDevice(k, i), func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if !drained {
		t.Fatalf("multi-queue run did not drain (%d outstanding)", i.Outstanding())
	}
	return i, k
}

func TestRunMultiCompletesEveryQueue(t *testing.T) {
	src := newStubSource(reqs(trace.OpWrite, 40), reqs(trace.OpRead, 25), reqs(trace.OpWrite, 10))
	cfg := SATA2()
	i, _ := runMulti(t, cfg, src)
	if i.Stats.Completed != 75 {
		t.Fatalf("completed %d of 75", i.Stats.Completed)
	}
	for q, want := range []uint64{40, 25, 10} {
		if got := i.QueueCompleted(q); got != want {
			t.Errorf("queue %d completed %d, want %d", q, got, want)
		}
		if got := i.QueueLatency(q).All().Ops; got != want {
			t.Errorf("queue %d recorded %d latencies, want %d", q, got, want)
		}
	}
	// The merged drive-level collector equals the union of the queues.
	if got := i.Latency().All().Ops; got != 75 {
		t.Errorf("merged collector has %d ops, want 75", got)
	}
	if len(i.qs) != 3 {
		t.Errorf("%d queues, want 3", len(i.qs))
	}
}

func TestRunMultiRespectsQueueDepths(t *testing.T) {
	src := newStubSource(reqs(trace.OpWrite, 50), reqs(trace.OpWrite, 50))
	src.depths[0] = 3
	src.depths[1] = 5
	i, _ := runMulti(t, SATA2(), src)
	if got := i.QueueInflightPeak(0); got > 3 {
		t.Errorf("queue 0 inflight peak %d exceeds depth 3", got)
	}
	if got := i.QueueInflightPeak(1); got > 5 {
		t.Errorf("queue 1 inflight peak %d exceeds depth 5", got)
	}
	if i.Stats.Completed != 100 {
		t.Fatalf("completed %d of 100", i.Stats.Completed)
	}
}

func TestRunMultiArbitrationAtDispatch(t *testing.T) {
	// A window of 1 forces every dispatch through arbitration; the scripted
	// arbiter always prefers the last ready queue, so queue 1 must finish
	// completely before queue 0's second command is served.
	src := newStubSource(reqs(trace.OpWrite, 10), reqs(trace.OpWrite, 10))
	src.pick = func(ready []int) int { return ready[len(ready)-1] }
	cfg := SATA2()
	cfg.QueueDepth = 1
	i, _ := runMulti(t, cfg, src)
	if i.Stats.Completed != 20 {
		t.Fatalf("completed %d of 20", i.Stats.Completed)
	}
	if len(src.picks) == 0 {
		t.Fatal("arbiter never consulted")
	}
	multi := 0
	for _, ready := range src.picks {
		if len(ready) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("arbitration never saw more than one ready queue")
	}
}

func TestRunMultiValidation(t *testing.T) {
	k := sim.NewKernel()
	i, err := New(k, SATA2())
	if err != nil {
		t.Fatal(err)
	}
	if err := i.RunMulti(nil, func(*Command) {}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if err := i.RunMulti(newStubSource(), func(*Command) {}, nil); err == nil {
		t.Error("zero-queue source accepted")
	}
	src := newStubSource(reqs(trace.OpWrite, 1))
	if err := i.RunMulti(src, instantDevice(k, i), nil); err != nil {
		t.Fatal(err)
	}
	if err := i.RunMulti(src, instantDevice(k, i), nil); err == nil {
		t.Error("second RunMulti accepted")
	}
}

// BenchmarkMultiQueueDispatch exercises the dispatch hot path — per-queue
// ingress, arbitration at every window grant, per-tenant accounting — so
// allocation regressions in the new front end fail the CI bench smoke job
// loudly.
func BenchmarkMultiQueueDispatch(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		src := newStubSource(
			reqs(trace.OpWrite, 400), reqs(trace.OpRead, 400),
			reqs(trace.OpWrite, 400), reqs(trace.OpRead, 400),
		)
		src.pick = func(ready []int) int { return ready[len(ready)-1] }
		k := sim.NewKernel()
		i, err := New(k, SATA2())
		if err != nil {
			b.Fatal(err)
		}
		if err := i.RunMulti(src, func(c *Command) { i.Complete(c) }, nil); err != nil {
			b.Fatal(err)
		}
		k.RunAll()
		if i.Stats.Completed != 1600 {
			b.Fatalf("completed %d", i.Stats.Completed)
		}
	}
}
