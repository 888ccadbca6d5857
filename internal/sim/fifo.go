package sim

// FIFO is the one first-in first-out queue behind every shared resource:
// server grants, token-gate waiters, DRAM accesses, AHB transfers, the
// channel controller's per-die command queues and the host submission
// queues. It is a ring: push and pop are O(1), a drained queue reuses its
// storage, and the storage only grows (by doubling) when the queue is full,
// so a queue that never empties is bounded by twice its peak occupancy, not
// by the number of pushes. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // queued elements
}

// Len reports the number of queued elements.
//
//ssdx:hotpath
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
//
//ssdx:hotpath
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront puts v back at the head, ahead of every queued element: the
// undo of a Pop.
//
//ssdx:hotpath
func (q *FIFO[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Front returns the oldest element without removing it. The queue must not
// be empty.
//
//ssdx:hotpath
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: FIFO is empty")
	}
	return q.buf[q.head]
}

// At returns a pointer to the i-th oldest element (0 is the front,
// Len()-1 the back), for updating it in place. The pointer is valid until
// the next Push.
//
//ssdx:hotpath
func (q *FIFO[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Pop removes and returns the oldest element. The queue must not be empty.
//
//ssdx:hotpath
func (q *FIFO[T]) Pop() T {
	v := q.Front()
	var zero T
	q.buf[q.head] = zero // drop the reference so popped items can be collected
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unrolling the queued elements to the front.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(1, 2*len(q.buf)))
	copied := copy(buf, q.buf[q.head:])
	copy(buf[copied:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
