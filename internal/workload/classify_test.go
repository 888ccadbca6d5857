package workload

import (
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

var goldenTraces = []string{"seqwrite.trace", "randwrite.trace", "mixed.trace"}

// TestClassifierParityOnGoldenTraces: the incremental classifier that rides
// a streaming replay must reach the identical lifetime classification as
// the one-shot ScanTrace pre-scan it replaced, on every committed golden
// trace — same request/write counts, same WAF sequentiality verdict, same
// read extent.
func TestClassifierParityOnGoldenTraces(t *testing.T) {
	for _, name := range goldenTraces {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			want, err := ScanTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if want.Requests == 0 {
				t.Fatal("empty golden trace")
			}
			st, err := Spec{TracePath: path}.Stream()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for {
				if _, ok := st.Next(); !ok {
					break
				}
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if got := st.Classification().Info(); got != want {
				t.Errorf("replay classification %+v != pre-scan %+v", got, want)
			}
		})
	}
}

// TestClassifierWindowedEstimate: the trailing-window estimate tracks
// regime changes a lifetime counter cannot — after a long sequential prefix
// turns random, the window flips while the lifetime majority still says
// sequential.
func TestClassifierWindowedEstimate(t *testing.T) {
	c := NewClassifier(128)
	w := func(lba int64) trace.Request {
		return trace.Request{Op: trace.OpWrite, LBA: lba, Bytes: 4096}
	}
	// 1000 sequential writes.
	for i := int64(0); i < 1000; i++ {
		c.Observe(w(i * 8))
	}
	if c.RandomWrites() {
		t.Fatal("sequential prefix classified random")
	}
	if !c.Confident() {
		t.Fatal("full window not confident")
	}
	// 200 random writes: window (128) is now fully random...
	for i := int64(0); i < 200; i++ {
		c.Observe(w(((i*2654435761 + 17) % 4096) * 8))
	}
	if !c.RandomWrites() {
		t.Error("windowed estimate missed the random regime")
	}
	// ...while the lifetime rule still sees a sequential majority.
	if c.Info().RandomWrites {
		t.Error("lifetime classification flipped on a 1/6 random tail")
	}
}
