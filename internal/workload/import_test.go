package workload

import (
	"testing"

	"repro/internal/trace"
)

// TestReplayAutoDetectsForeignFormats proves a replay stream plays
// committed blktrace and MSR fixtures without a conversion step.
func TestReplayAutoDetectsForeignFormats(t *testing.T) {
	cases := []struct {
		path   string
		format trace.Format
		reqs   int
		writes int
	}{
		{"testdata/sample.blktrace", trace.FormatBlktrace, 4, 3},
		{"testdata/sample.msr", trace.FormatMSR, 3, 2},
	}
	for _, c := range cases {
		r, err := OpenReplay(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if r.Format() != c.format {
			t.Errorf("%s detected as %v, want %v", c.path, r.Format(), c.format)
		}
		r.Close()
		st, err := Spec{TracePath: c.path}.Stream()
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		n, writes := 0, 0
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			n++
			if req.Op == trace.OpWrite {
				writes++
			}
		}
		if err := st.Err(); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if n != c.reqs || writes != c.writes {
			t.Errorf("%s: %d requests (%d writes), want %d (%d)",
				c.path, n, writes, c.reqs, c.writes)
		}
		// The classifier rode the stream: replay needs no pre-scan.
		if got := st.Classification().Info().Writes; got != c.writes {
			t.Errorf("%s: classifier saw %d writes, want %d", c.path, got, c.writes)
		}
		st.Close()
	}
}
