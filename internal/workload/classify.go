package workload

import "repro/internal/trace"

// DefaultClassifyWindow is the trailing-write window of the incremental
// sequentiality estimate: wide enough to smooth bursts, narrow enough to
// track regime changes within a trace.
const DefaultClassifyWindow = 1024

// Classifier classifies a request stream's write-address randomness (the
// WAF sequentiality rule) incrementally in O(window) memory. It maintains
// both lifetime counters — matching the one-shot ScanTrace pre-scan
// exactly — and a trailing-window estimate that lets replay adapt the WAF
// abstraction *during* the run, removing the need for a second pass over
// the trace file.
type Classifier struct {
	window int
	ring   []bool // seq-break bit of the last `window` writes
	head   int
	filled bool
	winBrk int // breaks inside the ring

	requests   int
	writes     int
	breaks     int // lifetime seq-break count
	expected   int64
	hasWrite   bool
	totalBytes int64
}

// NewClassifier builds a classifier with the given trailing-write window
// (<= 0 selects DefaultClassifyWindow).
func NewClassifier(window int) *Classifier {
	if window <= 0 {
		window = DefaultClassifyWindow
	}
	return &Classifier{window: window, ring: make([]bool, window)}
}

// Observe folds one request into the classification.
func (c *Classifier) Observe(req trace.Request) {
	c.requests++
	c.totalBytes += req.Bytes
	if req.Op != trace.OpWrite {
		return
	}
	brk := c.hasWrite && req.LBA != c.expected
	c.expected = req.EndLBA()
	c.hasWrite = true
	c.writes++
	if brk {
		c.breaks++
	}
	if c.filled && c.ring[c.head] {
		c.winBrk--
	}
	c.ring[c.head] = brk
	if brk {
		c.winBrk++
	}
	c.head++
	if c.head == c.window {
		c.head, c.filled = 0, true
	}
}

// windowLen returns how many writes the ring currently holds.
func (c *Classifier) windowLen() int {
	if c.filled {
		return c.window
	}
	return c.head
}

// RandomWrites is the live windowed estimate: >50% of the trailing window's
// writes breaking consecutive order. Before any write it reports false.
func (c *Classifier) RandomWrites() bool {
	n := c.windowLen()
	return n > 0 && 2*c.winBrk > n
}

// Confident reports whether the windowed estimate has seen enough writes to
// act on (a full window, or the whole stream when shorter than one).
func (c *Classifier) Confident() bool { return c.windowLen() >= 64 || c.filled }

// Info snapshots the lifetime classification in the same form — and with
// the same >50%-of-all-writes rule — as the one-shot pre-scan, so both
// paths agree on any stream.
func (c *Classifier) Info() TraceInfo {
	return TraceInfo{
		Requests:     c.requests,
		Writes:       c.writes,
		RandomWrites: c.writes > 0 && 2*c.breaks > c.writes,
		TotalBytes:   c.totalBytes,
	}
}
