package hostif

import "repro/internal/sim"

// tailLog keeps the back half of a completion log: of n completions, those
// from index k = min(n/2, n-2) onward, plus the byte sum of all but the
// first of them. Each completion moves k on by at most one, so the log
// drops at most one entry per completion and holds about n/2 of them.
//
// It stores them in 32-bit fields: the time of completion k, the gap from
// each completion to the next (4 B a completion, in a gapQueue), and the
// payload sizes as runs of equal size (8 B a run). A gap or size too large
// for 32 bits is stored as wide, its full value in a side queue. So a
// stream of equal-size requests costs about 4 B per logged completion, and
// one whose every completion differs in size from the one before costs
// 12 B, against 16 B for a plain time-and-size record.
type tailLog struct {
	n         int                // completions logged
	k         int                // index of the log's first completion
	first     sim.Time           // time of completion k
	last      sim.Time           // time of completion n-1
	bytes     int64              // payload of completions k+1 .. n-1
	gaps      gapQueue           // gaps between completions k .. n-1
	sizes     sim.FIFO[sizeRun]  // payload sizes of completions k .. n-1
	wideGaps  sim.FIFO[sim.Time] // the gaps stored as wide, in order
	wideSizes sim.FIFO[int64]    // the sizes stored as wide, in order
}

// wide marks a 32-bit gap or size whose value does not fit below it: a gap
// of 2^32-1 ps (about 4.3 ms) or more, a payload of 2^32-1 B or more.
const wide = 1<<32 - 1

// sizeRun is a run of n consecutive completions of one payload size.
type sizeRun struct{ bytes, n uint32 }

// add logs one completion.
//
//ssdx:hotpath
func (t *tailLog) add(at sim.Time, bytes int64) {
	if t.n == 0 {
		t.first = at
	} else {
		t.bytes += bytes
		if g := at - t.last; uint64(g) < wide {
			t.gaps.push(uint32(g))
		} else {
			t.gaps.push(wide)
			t.wideGaps.Push(g)
		}
	}
	l := t.sizes.Len()
	switch {
	case uint64(bytes) >= wide:
		t.sizes.Push(sizeRun{bytes: wide, n: 1})
		t.wideSizes.Push(bytes)
	case l > 0 && t.sizes.At(l-1).bytes == uint32(bytes) && t.sizes.At(l-1).n < wide:
		t.sizes.At(l-1).n++
	default:
		t.sizes.Push(sizeRun{bytes: uint32(bytes), n: 1})
	}
	t.n++
	t.last = at
	if t.k < min(t.n/2, t.n-2) {
		t.dropFirst()
	}
}

// dropFirst moves the log's start on by one completion.
//
//ssdx:hotpath
func (t *tailLog) dropFirst() {
	t.k++
	g := sim.Time(t.gaps.pop())
	if g == wide {
		g = t.wideGaps.Pop()
	}
	t.first += g
	if r := t.sizes.At(0); r.n > 1 {
		r.n--
	} else if t.sizes.Pop().bytes == wide {
		t.wideSizes.Pop()
	}
	if b := t.sizes.Front().bytes; b != wide {
		t.bytes -= int64(b)
	} else {
		t.bytes -= t.wideSizes.Front()
	}
}

// mbps is the payload of completions k+1 .. n-1 over the time from
// completion k to n-1; ok is false with fewer than two completions or a
// zero interval.
func (t *tailLog) mbps() (mbps float64, ok bool) {
	if t.n < 2 {
		return 0, false
	}
	dur := t.last - t.first
	if dur <= 0 {
		return 0, false
	}
	return float64(t.bytes) / dur.Seconds() / 1e6, true
}

// gapChunk is how many gaps one chunk of a gapQueue holds (4 KiB).
const gapChunk = 1024

// gapQueue is a FIFO of 32-bit gaps in fixed-size chunks. Unlike a ring
// that doubles, it holds at most two partly used chunks beyond what is
// queued, so the tail log costs about 4 B per logged completion however
// long the run. The chunk its front drains is kept for the back to reuse.
type gapQueue struct {
	chunks     sim.FIFO[*[gapChunk]uint32]
	back       *[gapChunk]uint32 // the chunk pushes fill
	head, tail int               // next gap to pop in the front chunk; gaps in back
	n          int               // gaps queued
	spare      *[gapChunk]uint32 // a drained chunk, kept for the next push
}

// push appends g at the back.
//
//ssdx:hotpath
func (q *gapQueue) push(g uint32) {
	if q.back == nil || q.tail == gapChunk {
		q.back, q.spare = q.spare, nil
		if q.back == nil {
			q.back = new([gapChunk]uint32)
		}
		q.chunks.Push(q.back)
		q.tail = 0
	}
	q.back[q.tail] = g
	q.tail++
	q.n++
}

// pop removes and returns the oldest gap. The queue must not be empty.
//
//ssdx:hotpath
func (q *gapQueue) pop() uint32 {
	g := q.chunks.Front()[q.head]
	q.head++
	q.n--
	if q.head == gapChunk || q.n == 0 {
		// The front chunk is drained (or the queue is empty): keep it
		// as the spare.
		q.spare = q.chunks.Pop()
		q.head = 0
		if q.spare == q.back {
			q.back = nil
		}
	}
	return g
}
