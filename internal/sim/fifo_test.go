package sim

import "testing"

// TestFIFOOrderAcrossWrap drives a FIFO and a plain slice queue with the same
// seeded push/pop mix. Pushes slightly outnumber pops, so the head wraps
// round the ring many times and the ring grows while wrapped; every pop must
// still return the oldest element, and At must index from the front.
func TestFIFOOrderAcrossWrap(t *testing.T) {
	var q FIFO[int]
	var ref []int
	rng := NewRNG(3)
	wrapped, grewWrapped := false, false
	next := 0
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(100) < 55 {
			if q.n == len(q.buf) && q.head != 0 {
				grewWrapped = true
			}
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.head+q.n > len(q.buf) {
			wrapped = true
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 && q.Front() != ref[0] {
			t.Fatalf("step %d: Front %d, want %d", step, q.Front(), ref[0])
		}
		if len(ref) > 0 {
			if i := step % len(ref); *q.At(i) != ref[i] {
				t.Fatalf("step %d: At(%d) %d, want %d", step, i, *q.At(i), ref[i])
			}
		}
	}
	if !wrapped || !grewWrapped {
		t.Fatalf("mix never exercised the ring (wrapped %v, grew while wrapped %v)", wrapped, grewWrapped)
	}
}

// TestFIFOBoundedByPeak pushes 10^6 elements through a queue that never
// empties: its storage must track peak occupancy, not the push count.
func TestFIFOBoundedByPeak(t *testing.T) {
	var q FIFO[*int]
	rng := NewRNG(9)
	v := 0
	peak, popped := 0, 0
	for i := 0; i < 1_000_000; i++ {
		q.Push(&v)
		peak = max(peak, q.Len())
		// Keep between 1 and ~100 queued, drifting randomly.
		for q.Len() > 1 && (q.Len() > 100 || rng.Intn(2) == 0) {
			q.Pop()
			popped++
		}
	}
	if q.Len() == 0 || popped == 0 {
		t.Fatalf("queue drained or never popped: len %d, popped %d", q.Len(), popped)
	}
	if c := len(q.buf); c > 2*peak {
		t.Fatalf("capacity %d exceeds twice the peak occupancy %d", c, peak)
	}
}

func TestFIFOEmptyPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Push(1)
	q.Pop()
	q.Pop()
}
