package sim

import (
	"fmt"
	"testing"
)

// eagerServer is the reference for Server's lazy release: the same grant
// logic, but every grant that ends later than now queues its release event
// at once, as Server did before it reserved seqs, with the holder's done
// queued right behind it. It counts those releases and the ones some
// request waited for (queued while the grant held the server); the rest
// are the no-op events the lazy server never queues.
type eagerServer struct {
	k         *Kernel
	clock     *Clock
	busyUntil Time
	queue     FIFO[serverReq]
	OnServe   func(start, end Time)

	waited            bool // a request waited behind the current grant
	releases, awaited int
}

func newEagerServer(k *Kernel, clock *Clock) *eagerServer {
	return &eagerServer{k: k, clock: clock}
}

func (s *eagerServer) Acquire(dur Time, done func()) {
	s.queue.Push(serverReq{dur: max(dur, 0), done: done})
	if s.busyUntil > s.k.Now() && !s.waited {
		s.waited = true
		s.awaited++
	}
	s.kick()
}

func (s *eagerServer) kick() {
	if s.queue.Len() == 0 {
		return
	}
	now := s.k.Now()
	if s.busyUntil > now {
		return
	}
	req := s.queue.Pop()
	start := now
	if s.clock != nil {
		start = s.clock.NextEdge(start)
	}
	end := start + req.dur
	s.busyUntil = end
	s.OnServe(start, end)
	s.k.At(end, s.kick)
	if req.done != nil {
		s.k.At(end, req.done)
	}
	if end > now {
		s.releases++
		s.waited = s.queue.Len() > 0
		if s.waited {
			s.awaited++
		}
	}
}

// acquirer is what the scenario drives: Server or the eager reference.
type acquirer interface {
	Acquire(dur Time, done func())
}

// serverScenario is one random Acquire pattern on two servers sharing a
// kernel, one of them clocked when clocked is set. Times sit on a coarse
// grid, so arrivals often land exactly at a busyUntil, and several land at
// the same time; durations include zero. Done callbacks, which run at the
// window's end after the release has granted the next waiter, re-acquire
// at once (an arrival while busy unless nothing waited), schedule a
// re-acquire or a plain event in the same-time lane, or do nothing. The
// kernel runs in paused steps of Run(until), with an outside Acquire at
// each pause, then to completion. The log records every granted window and
// every callback in firing order.
type serverScenario struct {
	k   *Kernel
	rng *RNG
	srv [2]acquirer
	log []string
	n   int // acquisitions so far
}

const scenarioAcquires = 400

func runServerScenario(seed uint64, clocked, lazy bool) (log []string, now Time, executed uint64, unwaited int) {
	k := NewKernel()
	sc := &serverScenario{k: k, rng: NewRNG(seed)}
	var clk *Clock
	if clocked {
		clk = &Clock{Period: 3 * Nanosecond, Name: "bus"}
	}
	var eager [2]*eagerServer
	for i, c := range []*Clock{clk, nil} {
		onServe := func(start, end Time) { sc.note(fmt.Sprintf("serve on s%d [%v, %v)", i, start, end)) }
		if lazy {
			s := NewServer(k, c, fmt.Sprintf("s%d", i))
			s.OnServe = onServe
			sc.srv[i] = s
		} else {
			eager[i] = newEagerServer(k, c)
			eager[i].OnServe = onServe
			sc.srv[i] = eager[i]
		}
	}
	for i := 0; i < 40; i++ {
		t := Time(sc.rng.Intn(60)) * Nanosecond
		k.At(t, func() { sc.note("arrive"); sc.acquire() })
	}
	for step := 0; step < 30; step++ {
		k.Run(k.Now() + Time(sc.rng.Intn(9))*Nanosecond)
		sc.note("pause")
		if sc.rng.Bool(0.5) {
			sc.acquire()
		}
	}
	k.RunAll()
	sc.note("end")
	for _, s := range eager {
		if s != nil {
			unwaited += s.releases - s.awaited
		}
	}
	return sc.log, k.Now(), k.Executed, unwaited
}

func (sc *serverScenario) note(what string) {
	sc.log = append(sc.log, fmt.Sprintf("%v %s", sc.k.Now(), what))
}

// acquire makes one request on a random server with a random duration.
func (sc *serverScenario) acquire() {
	if sc.n >= scenarioAcquires {
		return
	}
	sc.n++
	id, r := sc.n, sc.rng
	which := r.Intn(2)
	dur := Time(0)
	if !r.Bool(0.25) {
		dur = Time(1+r.Intn(6)) * Nanosecond
	}
	sc.srv[which].Acquire(dur, func() {
		sc.note(fmt.Sprintf("end %d on s%d", id, which))
		switch r.Intn(5) {
		case 0:
			sc.acquire() // arrives while busy if the release granted a waiter
		case 1:
			sc.k.Schedule(0, sc.acquire) // arrives behind the same-time lane
		case 2:
			sc.k.Schedule(0, func() { sc.note(fmt.Sprintf("after %d", id)) })
		}
	})
}

// TestServerLazyReleaseMatchesEager drives Server and the eager reference
// with the same random Acquire patterns: the granted windows, the callback
// order and the final time must be identical, and the lazy kernel must
// execute exactly the releases nobody waited for fewer events.
func TestServerLazyReleaseMatchesEager(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for _, clocked := range []bool{false, true} {
			name := fmt.Sprintf("seed%d/clocked=%v", seed, clocked)
			wantLog, wantNow, wantExec, unwaited := runServerScenario(seed, clocked, false)
			gotLog, gotNow, gotExec, _ := runServerScenario(seed, clocked, true)
			for i := range min(len(gotLog), len(wantLog)) {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("%s: callback %d is %q, eager reference %q", name, i, gotLog[i], wantLog[i])
				}
			}
			if len(gotLog) != len(wantLog) {
				t.Fatalf("%s: %d callbacks, eager reference %d", name, len(gotLog), len(wantLog))
			}
			if gotNow != wantNow {
				t.Fatalf("%s: final time %v, eager reference %v", name, gotNow, wantNow)
			}
			if unwaited == 0 {
				t.Fatalf("%s: no release went unwaited; the scenario does not exercise the elision", name)
			}
			if gotExec != wantExec-uint64(unwaited) {
				t.Fatalf("%s: executed %d events, want eager %d minus %d unwaited releases",
					name, gotExec, wantExec, unwaited)
			}
		}
	}
}

// BenchmarkServerQueued measures the reserved-seq release. Two requests
// start the chain, so one always waits: each later Acquire is made from a
// done callback while the next grant holds the server, and queues the
// release that grant reserved.
func BenchmarkServerQueued(b *testing.B) {
	k := NewKernel()
	s := NewServer(k, nil, "bench")
	n := 0
	var next func()
	next = func() {
		if n < b.N {
			n++
			s.Acquire(Nanosecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Acquire(Nanosecond, next)
	s.Acquire(Nanosecond, next)
	k.RunAll()
}
