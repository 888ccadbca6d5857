package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pingPong builds a deterministic cross-domain workload: each domain runs a
// seeded RNG, does local work, and posts messages to pseudo-randomly chosen
// peers; every event appends to its domain's log. Returns the per-domain
// logs concatenated in domain order.
func pingPong(domains, events int) []string {
	const look = 100 * Nanosecond
	ds := NewDomainSet(domains, look)
	logs := make([][]string, domains)
	rngs := make([]*RNG, domains)
	for i := 0; i < domains; i++ {
		rngs[i] = NewRNG(uint64(7*i + 13))
	}
	var hop func(from, depth int) func()
	hop = func(at, depth int) func() {
		return func() {
			d := ds.Domain(at)
			logs[at] = append(logs[at], fmt.Sprintf("d%d@%v depth%d", at, d.K.Now(), depth))
			if depth <= 0 {
				return
			}
			// Local follow-up work inside the window.
			d.K.Schedule(Time(rngs[at].Intn(50))*Nanosecond, func() {
				logs[at] = append(logs[at], fmt.Sprintf("d%d local@%v", at, d.K.Now()))
			})
			// Cross-domain hop with randomized (but >= lookahead) delay.
			to := int(rngs[at].Intn(domains))
			delay := look + Time(rngs[at].Intn(500))*Nanosecond
			d.Post(ds.Domain(to), delay, hop(to, depth-1))
		}
	}
	for i := 0; i < domains; i++ {
		d := ds.Domain(i)
		for j := 0; j < events; j++ {
			d.K.Schedule(Time(j)*Microsecond, hop(i, 12))
		}
	}
	ds.Run()
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return all
}

// TestDomainDeterminism pins the core guarantee: the coordinator's merge
// order alone fixes the schedule, so two runs of the same cross-domain
// workload execute byte-identical event sequences per domain.
func TestDomainDeterminism(t *testing.T) {
	first := pingPong(5, 8)
	if len(first) == 0 {
		t.Fatal("workload executed no events")
	}
	if again := pingPong(5, 8); !reflect.DeepEqual(first, again) {
		t.Fatalf("repeated run diverged (%d vs %d log lines)", len(again), len(first))
	}
}

func TestDomainZeroLookaheadPanics(t *testing.T) {
	for _, look := range []Time{0, -Nanosecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDomainSet with lookahead %v did not panic", look)
				}
			}()
			NewDomainSet(2, look)
		}()
	}
}

func TestDomainPostBelowLookaheadPanics(t *testing.T) {
	ds := NewDomainSet(2, Microsecond)
	ds.Domain(0).K.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post below lookahead did not panic")
			}
		}()
		ds.Domain(0).Post(ds.Domain(1), Nanosecond, func() {})
	})
	ds.Run()
	// Posting to the own domain is a plain schedule: any delay is legal.
	ran := false
	ds.Domain(0).K.Schedule(0, func() {
		ds.Domain(0).Post(ds.Domain(0), 0, func() { ran = true })
	})
	ds.Run()
	if !ran {
		t.Error("self-post did not run")
	}
}

// TestDomainMessageOrdering pins the deterministic merge: same-timestamp
// messages deliver in (sender id, send order), before later timestamps.
func TestDomainMessageOrdering(t *testing.T) {
	ds := NewDomainSet(3, 100*Nanosecond)
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	// Senders post in reverse domain order within the same window; delivery
	// must still sort by (at, sender, order).
	ds.Domain(2).K.Schedule(0, func() {
		ds.Domain(2).Post(ds.Domain(0), 200*Nanosecond, mark("d2-first"))
		ds.Domain(2).Post(ds.Domain(0), 200*Nanosecond, mark("d2-second"))
		ds.Domain(2).Post(ds.Domain(0), 150*Nanosecond, mark("d2-early"))
	})
	ds.Domain(1).K.Schedule(0, func() {
		ds.Domain(1).Post(ds.Domain(0), 200*Nanosecond, mark("d1-first"))
	})
	ds.Run()
	want := []string{"d2-early", "d1-first", "d2-first", "d2-second"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

func TestDomainExecutedAndNow(t *testing.T) {
	ds := NewDomainSet(2, Microsecond)
	ds.Domain(0).K.Schedule(Microsecond, func() {})
	ds.Domain(1).K.Schedule(3*Microsecond, func() {})
	end := ds.Run()
	if ds.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", ds.Executed())
	}
	if end != 3*Microsecond || ds.Now() != end {
		t.Fatalf("Now = %v, want 3us", end)
	}
}

func TestKernelNextAt(t *testing.T) {
	k := NewKernel()
	if k.NextAt() != MaxTime {
		t.Fatal("empty kernel NextAt != MaxTime")
	}
	k.Schedule(5*Nanosecond, func() {})
	if k.NextAt() != 5*Nanosecond {
		t.Fatalf("NextAt = %v, want 5ns", k.NextAt())
	}
	// A same-time event is due now, ahead of the heap's top.
	k.Schedule(0, func() {})
	if k.NextAt() != 0 {
		t.Fatalf("NextAt with a same-time event = %v, want 0", k.NextAt())
	}
}

// BenchmarkDomainSet measures domain-set event throughput over a
// messaging-heavy synthetic workload; the CI bench smoke runs it once to
// keep the coordinator exercised.
func BenchmarkDomainSet(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		const look = 100 * Nanosecond
		ds := NewDomainSet(8, look)
		for d := 0; d < len(ds.domains); d++ {
			dom := ds.Domain(d)
			var tick func()
			n := 0
			tick = func() {
				n++
				if n >= 3000 {
					return
				}
				if n%8 == 0 {
					to := ds.Domain((dom.id + 1) % len(ds.domains))
					dom.Post(to, look, func() {})
				}
				dom.K.Schedule(10*Nanosecond, tick)
			}
			dom.K.Schedule(0, tick)
		}
		ds.Run()
		events += ds.Executed()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
