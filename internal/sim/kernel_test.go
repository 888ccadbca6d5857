package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000*Nanosecond {
		t.Fatalf("unit mismatch")
	}
	if got := FromMicroseconds(1.5); got != 1500*Nanosecond {
		t.Fatalf("FromMicroseconds(1.5) = %v", got)
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.t), got, c.want)
		}
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	k.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	k.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if k.Now() != 30*Nanosecond {
		t.Fatalf("final time %v", k.Now())
	}
}

func TestKernelFIFOAtSameTime(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.Schedule(10*Nanosecond, func() {
		hits = append(hits, k.Now())
		k.Schedule(5*Nanosecond, func() {
			hits = append(hits, k.Now())
		})
	})
	k.RunAll()
	if len(hits) != 2 || hits[0] != 10*Nanosecond || hits[1] != 15*Nanosecond {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10*Nanosecond, func() { fired++ })
	k.Schedule(20*Nanosecond, func() { fired++ })
	k.Schedule(30*Nanosecond, func() { fired++ })
	k.Run(20 * Nanosecond)
	if fired != 2 {
		t.Fatalf("fired %d events before horizon, want 2", fired)
	}
	if k.Now() != 20*Nanosecond {
		t.Fatalf("paused time %v", k.Now())
	}
	k.RunAll()
	if fired != 3 {
		t.Fatalf("resume failed, fired=%d", fired)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := 1; i <= 5; i++ {
		k.Schedule(Time(i)*Nanosecond, func() {
			n++
			if n == 2 {
				k.Stop()
			}
		})
	}
	k.RunAll()
	if n != 2 {
		t.Fatalf("stop did not halt the loop, n=%d", n)
	}
	if k.Pending() != 3 {
		t.Fatalf("pending %d", k.Pending())
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Nanosecond, func() {
		k.Schedule(-5*Nanosecond, func() {
			if k.Now() != 10*Nanosecond {
				t.Errorf("negative delay ran at %v", k.Now())
			}
		})
	})
	k.RunAll()
}

func TestClockEdges(t *testing.T) {
	c := NewClock("cpu", 200) // 5 ns period
	if c.Period != 5*Nanosecond {
		t.Fatalf("period %v", c.Period)
	}
	if got := c.NextEdge(0); got != 0 {
		t.Fatalf("edge at 0: %v", got)
	}
	if got := c.NextEdge(1 * Nanosecond); got != 5*Nanosecond {
		t.Fatalf("edge after 1ns: %v", got)
	}
	if got := c.NextEdge(5 * Nanosecond); got != 5*Nanosecond {
		t.Fatalf("edge at exact boundary: %v", got)
	}
	if got := c.Cycles(3); got != 15*Nanosecond {
		t.Fatalf("cycles: %v", got)
	}
}

func TestClockEdgeProperty(t *testing.T) {
	c := NewClock("x", 333) // non-divisor period
	f := func(raw uint32) bool {
		t0 := Time(raw)
		e := c.NextEdge(t0)
		if e < t0 {
			return false
		}
		if e%c.Period != 0 {
			return false
		}
		return e-t0 < c.Period
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerialization(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, nil, "ecc")
	var windows [][2]Time
	var ends []Time
	s.OnServe = func(start, end Time) { windows = append(windows, [2]Time{start, end}) }
	for i := 0; i < 3; i++ {
		s.Acquire(10*Nanosecond, func() { ends = append(ends, k.Now()) })
	}
	k.RunAll()
	if len(windows) != 3 || len(ends) != 3 {
		t.Fatalf("served %d, %d done", len(windows), len(ends))
	}
	for i := 1; i < len(windows); i++ {
		if windows[i][0] < windows[i-1][1] {
			t.Fatalf("overlapping service windows: %v", windows)
		}
	}
	for i, w := range windows {
		if ends[i] != w[1] {
			t.Fatalf("done %d ran at %v, its window %v", i, ends[i], w)
		}
	}
	if windows[2][1] != 30*Nanosecond {
		t.Fatalf("total service time wrong: %v", windows)
	}
}

// TestServerZeroDurationGrants stacks several grants whose done callbacks
// are pending at once: zero-duration requests leave the server free at the
// same instant, so each Acquire is granted before any done runs. Every
// done must still run at its own window's end, in arrival order.
func TestServerZeroDurationGrants(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, nil, "cpu")
	var got []string
	for i, dur := range []Time{0, 0, 0, 5 * Nanosecond} {
		s.Acquire(dur, func() {
			got = append(got, fmt.Sprintf("%d:%v", i, k.Now()))
		})
	}
	k.RunAll()
	want := []string{"0:0ps", "1:0ps", "2:0ps", "3:5.000ns"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
}

func TestServerClockAlignment(t *testing.T) {
	k := NewKernel()
	clk := NewClock("bus", 200) // 5 ns
	s := NewServer(k, clk, "bus")
	var start, end Time
	s.OnServe = func(st, _ Time) { start = st }
	k.Schedule(7*Nanosecond, func() {
		s.Acquire(5*Nanosecond, func() { end = k.Now() })
	})
	k.RunAll()
	if start != 10*Nanosecond || end != 15*Nanosecond {
		t.Fatalf("grant not aligned to clock edge: window [%v, %v)", start, end)
	}
}

func TestServerUtilization(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, nil, "u")
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("utilization at time 0 is %v, want 0", u)
	}
	s.Acquire(25*Nanosecond, nil)
	k.Schedule(100*Nanosecond, func() {}) // extend the run
	k.RunAll()
	u := s.Utilization(k.Now())
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization %v, want 0.25", u)
	}
}

func TestTokenGate(t *testing.T) {
	k := NewKernel()
	g := NewTokenGate(k, 2)
	running := 0
	peak := 0
	launch := func() {
		g.AcquireWhenFree(func() {
			running++
			if running > peak {
				peak = running
			}
			k.Schedule(10*Nanosecond, func() {
				running--
				g.Release()
			})
		})
	}
	for i := 0; i < 6; i++ {
		launch()
	}
	k.RunAll()
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	if g.held != 0 {
		t.Fatalf("tokens leaked: %d", g.held)
	}
	if g.Acquired != 6 {
		t.Fatalf("acquired %d", g.Acquired)
	}
}

func TestTokenGateFIFO(t *testing.T) {
	k := NewKernel()
	g := NewTokenGate(k, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		g.AcquireWhenFree(func() {
			order = append(order, i)
			k.Schedule(Nanosecond, g.Release)
		})
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("waiter order: %v", order)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d collisions", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		n := r.Intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %v", n)
		}
		d := r.Range(10*Nanosecond, 20*Nanosecond)
		if d < 10*Nanosecond || d > 20*Nanosecond {
			t.Fatalf("Range out of range: %v", d)
		}
	}
	if r.Range(5, 5) != 5 {
		t.Fatalf("degenerate range")
	}
}

func TestRNGUniformityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			sum += r.Float64()
		}
		mean := sum / n
		return mean > 0.45 && mean < 0.55
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelEventRecycling(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	// Grow the heap's backing array and the lane's ring.
	for i := 0; i < 128; i++ {
		k.Schedule(Time(i), nop)
	}
	k.RunAll()
	// Steady state: events live by value in storage that only grows, so
	// schedule+run, on the heap and on the same-time lane, must not
	// allocate.
	avg := testing.AllocsPerRun(200, func() {
		k.Schedule(10, nop)
		k.Schedule(0, nop)
		k.RunAll()
	})
	if avg > 0.05 {
		t.Fatalf("steady-state schedule allocates %.2f objects/op, want ~0", avg)
	}
}

// TestKernelRunUntilNeverRewinds runs the kernel to a time and then asks
// it to run until an earlier one: Run must return the current time, fire
// nothing and leave the clock where it was, so later events keep their
// order.
func TestKernelRunUntilNeverRewinds(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10*Nanosecond, func() { fired = append(fired, k.Now()) })
	k.Schedule(30*Nanosecond, func() { fired = append(fired, k.Now()) })
	if got := k.Run(20 * Nanosecond); got != 20*Nanosecond {
		t.Fatalf("Run(20ns) = %v", got)
	}
	k.Schedule(0, func() { fired = append(fired, k.Now()) })
	if got := k.Run(5 * Nanosecond); got != 20*Nanosecond || k.Now() != 20*Nanosecond {
		t.Fatalf("Run(5ns) after reaching 20ns = %v, Now %v; want 20ns for both", got, k.Now())
	}
	if len(fired) != 1 || k.Pending() != 2 {
		t.Fatalf("Run into the past fired events: fired %v, %d pending", fired, k.Pending())
	}
	k.RunAll()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fire times %v, want %v", fired, want)
	}
}

// refEvent is one pending event of the sorted-slice reference kernel. A
// parent event's callback schedules one child event childIn after it fires
// (childIn may be zero or negative, which clamps to the firing time); a
// stop event's callback calls Stop after that.
type refEvent struct {
	at      Time
	seq     uint64
	id      int
	parent  bool
	childIn Time
	stop    bool
}

// refKernel is the reference for TestKernelOrderMatchesReference: pending
// events in a slice, and Run fires the least (at, seq) by linear scan.
type refKernel struct {
	pending []refEvent
	now     Time
	seq     uint64
	created int   // events created so far; the next event's id
	fired   []int // ids in fire order
}

func (r *refKernel) at(at Time, parent bool, childIn Time, stop bool) {
	r.pending = append(r.pending, refEvent{at: max(at, r.now), seq: r.seq, id: r.created, parent: parent, childIn: childIn, stop: stop})
	r.seq++
	r.created++
}

func (r *refKernel) run(until Time) Time {
	if until < r.now {
		return r.now
	}
	for len(r.pending) > 0 {
		m := 0
		for i, e := range r.pending {
			if e.at < r.pending[m].at || e.at == r.pending[m].at && e.seq < r.pending[m].seq {
				m = i
			}
		}
		e := r.pending[m]
		if e.at > until {
			r.now = until
			return r.now
		}
		r.pending = append(r.pending[:m], r.pending[m+1:]...)
		r.now = e.at
		r.fired = append(r.fired, e.id)
		if e.parent {
			r.at(r.now+e.childIn, false, 0, false)
		}
		if e.stop {
			return r.now
		}
	}
	return r.now
}

// TestKernelOrderMatchesReference runs random interleavings of At,
// Schedule and Run(until) against a reference that keeps pending events in
// a slice and always fires the least (at, seq). Events are scheduled in the
// past, at the current time and later, from outside Run and from inside
// callbacks: some callbacks schedule a child with a zero or negative delay,
// so same-time lane events interleave with heap events at the same time.
// Some callbacks call Stop, and the next Run resumes; some Run calls ask for
// a horizon before the current time. Fire order, Run's return value and
// Pending must all agree.
func TestKernelOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRNG(seed)
		k := NewKernel()
		ref := &refKernel{}
		created := 0
		var fired []int
		var schedule func(at Time, parent bool, childIn Time, stop bool)
		schedule = func(at Time, parent bool, childIn Time, stop bool) {
			id := created
			created++
			fn := func() {
				fired = append(fired, id)
				if parent {
					schedule(k.Now()+childIn, false, 0, false)
				}
				if stop {
					k.Stop()
				}
			}
			if id%2 == 0 {
				k.At(at, fn)
			} else {
				k.Schedule(at-k.Now(), fn)
			}
		}
		for step := 0; step < 1000; step++ {
			if rng.Intn(10) < 7 {
				// Sometimes in the past (clamped to now) or at a time
				// already taken, so ties fall to seq.
				at := ref.now + Time(rng.Intn(200)) - 3
				parent, childIn := rng.Bool(0.3), Time(rng.Intn(6))-2
				stop := rng.Bool(0.05)
				schedule(at, parent, childIn, stop)
				ref.at(at, parent, childIn, stop)
			} else {
				until := ref.now + Time(rng.Intn(30)) - 3
				if rng.Bool(0.1) {
					until = MaxTime
				}
				if got, want := k.Run(until), ref.run(until); got != want {
					t.Fatalf("seed %d step %d: Run(%d) = %d, reference %d", seed, step, until, got, want)
				}
			}
			if k.Pending() != len(ref.pending) || created != ref.created {
				t.Fatalf("seed %d step %d: %d pending of %d, reference %d of %d",
					seed, step, k.Pending(), created, len(ref.pending), ref.created)
			}
		}
		for k.Pending() > 0 {
			if got, want := k.RunAll(), ref.run(MaxTime); got != want {
				t.Fatalf("seed %d drain: RunAll = %d, reference %d", seed, got, want)
			}
		}
		if fmt.Sprint(fired) != fmt.Sprint(ref.fired) {
			t.Fatalf("seed %d: fire order\n%v\nreference\n%v", seed, fired, ref.fired)
		}
	}
}

// BenchmarkKernelSchedule measures the schedule/dispatch hot path. Events
// live by value in the heap (and in the same-time lane for the i%1024 == 0
// ones scheduled at the current time), so steady-state allocs/op is 0 once
// the heap has grown to 1024 entries.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i&1023), nop)
		if k.Pending() >= 1024 {
			k.RunAll()
		}
	}
	k.RunAll()
}

// BenchmarkServerAcquire measures the server grant path with a queue of up
// to 256 waiting requests: pooled requests and the FIFO ring keep the steady
// state at 0 allocs/op.
func BenchmarkServerAcquire(b *testing.B) {
	k := NewKernel()
	s := NewServer(k, nil, "bench")
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(Nanosecond, nop)
		if s.QueueLen() >= 256 {
			k.RunAll()
		}
	}
	k.RunAll()
}

// BenchmarkTokenGateQueued measures the token gate's waiter path: the only
// token is held, so every acquire queues in the FIFO and every release hands
// the token to the oldest waiter.
func BenchmarkTokenGateQueued(b *testing.B) {
	k := NewKernel()
	g := NewTokenGate(k, 1)
	g.TryAcquire()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AcquireWhenFree(nop)
		if g.waiters.Len() >= 256 {
			for g.waiters.Len() > 0 {
				g.Release()
			}
			k.RunAll()
		}
	}
}
