package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []Op{OpWrite, OpRead, OpTrim, OpFlush} {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Fatalf("round trip %v -> %v", op, got)
		}
	}
	if _, err := ParseOp("Z"); err == nil {
		t.Fatalf("expected error for unknown op")
	}
}

func TestParseBasic(t *testing.T) {
	in := `# comment
0 W 0 4096
12.5 R 8 4096

100 T 16 8192
0 F 0 0
`
	reqs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].Op != OpWrite || reqs[0].LBA != 0 || reqs[0].Bytes != 4096 {
		t.Fatalf("req0 = %+v", reqs[0])
	}
	if reqs[1].ArrivalUS != 12.5 || reqs[1].Op != OpRead {
		t.Fatalf("req1 = %+v", reqs[1])
	}
	if reqs[2].Op != OpTrim || reqs[2].Bytes != 8192 {
		t.Fatalf("req2 = %+v", reqs[2])
	}
	if reqs[3].Op != OpFlush {
		t.Fatalf("req3 = %+v", reqs[3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"0 W 0",            // missing field
		"x W 0 4096",       // bad arrival
		"0 Q 0 4096",       // bad op
		"0 W -5 4096",      // negative lba
		"0 W 0 -1",         // negative size
		"0 W abc 4096",     // non-numeric lba
		"0 W 0 4096 extra", // extra field
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("line %q: expected parse error", line)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	reqs := []Request{
		{ArrivalUS: 0, Op: OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 3.25, Op: OpRead, LBA: 128, Bytes: 512},
		{ArrivalUS: 10, Op: OpTrim, LBA: 1 << 30, Bytes: 1 << 20},
	}
	var buf bytes.Buffer
	if err := Write(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("count %d != %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("req %d: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestEndLBA(t *testing.T) {
	r := Request{LBA: 10, Bytes: 4096}
	if r.EndLBA() != 18 {
		t.Fatalf("EndLBA = %d", r.EndLBA())
	}
	r = Request{LBA: 0, Bytes: 1} // partial sector rounds up
	if r.EndLBA() != 1 {
		t.Fatalf("partial sector EndLBA = %d", r.EndLBA())
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Request{{LBA: 1}, {LBA: 2}})
	r1, ok := s.Next()
	if !ok || r1.LBA != 1 {
		t.Fatalf("first next: %+v %v", r1, ok)
	}
	if r2, ok := s.Next(); !ok || r2.LBA != 2 {
		t.Fatalf("second next: %+v %v", r2, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatalf("expected exhaustion")
	}
}

func TestPatternParse(t *testing.T) {
	for _, p := range []Pattern{SeqWrite, SeqRead, RandWrite, RandRead} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("pattern %v round trip failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Fatalf("expected error")
	}
}

func TestSequentialWorkloadLayout(t *testing.T) {
	w := WorkloadSpec{Pattern: SeqWrite, BlockSize: 4096, SpanBytes: 4096 * 8, Requests: 20}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 20 {
		t.Fatalf("count %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Op != OpWrite {
			t.Fatalf("req %d op %v", i, r.Op)
		}
		wantLBA := int64(i%8) * 8
		if r.LBA != wantLBA {
			t.Fatalf("req %d lba %d want %d (wraparound)", i, r.LBA, wantLBA)
		}
		if r.Bytes != 4096 {
			t.Fatalf("req %d size %d", i, r.Bytes)
		}
	}
}

func TestRandomWorkloadBounds(t *testing.T) {
	w := WorkloadSpec{Pattern: RandRead, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 500, Seed: 9}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range reqs {
		if r.Op != OpRead {
			t.Fatalf("op %v", r.Op)
		}
		if r.LBA%8 != 0 {
			t.Fatalf("unaligned random LBA %d", r.LBA)
		}
		if r.EndLBA()*SectorSize > 1<<20 {
			t.Fatalf("request beyond span: %+v", r)
		}
		seen[r.LBA] = true
	}
	if len(seen) < 50 {
		t.Fatalf("random workload not spread: %d distinct blocks", len(seen))
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	w := WorkloadSpec{Pattern: RandWrite, BlockSize: 4096, SpanBytes: 1 << 24, Requests: 100, Seed: 3}
	a, _ := w.Generate()
	b, _ := w.Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	w.Seed = 4
	c, _ := w.Generate()
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("different seeds produced identical traces")
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []WorkloadSpec{
		{Pattern: SeqWrite, BlockSize: 0, SpanBytes: 1 << 20, Requests: 1},
		{Pattern: SeqWrite, BlockSize: 100, SpanBytes: 1 << 20, Requests: 1}, // not sector multiple
		{Pattern: SeqWrite, BlockSize: 4096, SpanBytes: 1024, Requests: 1},
		{Pattern: SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 0},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestWorkloadProperty(t *testing.T) {
	f := func(seed uint64, nReq uint8) bool {
		n := int(nReq)%200 + 1
		w := WorkloadSpec{Pattern: RandWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: n, Seed: seed}
		reqs, err := w.Generate()
		if err != nil || len(reqs) != n {
			return false
		}
		for _, r := range reqs {
			if r.LBA < 0 || r.EndLBA()*SectorSize > 1<<22 || r.Bytes != 4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalBytes(t *testing.T) {
	w := WorkloadSpec{Pattern: SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 256}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range reqs {
		total += r.Bytes
	}
	if total != 1<<20 {
		t.Fatalf("generated %d bytes, want 1 MiB", total)
	}
}

// TestGoldenStreamRoundTrip pins the canonical serialisation: WriteReader
// must render this exact text, and ParseReader must stream it back
// identically — arrival times, trims and flushes included.
func TestGoldenStreamRoundTrip(t *testing.T) {
	reqs := []Request{
		{ArrivalUS: 0, Op: OpWrite, LBA: 0, Bytes: 4096},
		{ArrivalUS: 12.5, Op: OpRead, LBA: 128, Bytes: 512},
		{ArrivalUS: 100.25, Op: OpTrim, LBA: 1 << 30, Bytes: 1 << 20},
		{ArrivalUS: 101, Op: OpFlush, LBA: 0, Bytes: 0},
		{ArrivalUS: 1e6, Op: OpWrite, LBA: 8, Bytes: 8192},
	}
	const golden = `# ssdexplorer trace: arrival_us op lba_sectors bytes
0 W 0 4096
12.5 R 128 512
100.25 T 1073741824 1048576
101 F 0 0
1e+06 W 8 8192
`
	var buf bytes.Buffer
	n, err := WriteReader(&buf, NewSliceStream(reqs))
	if err != nil || n != len(reqs) {
		t.Fatalf("WriteReader: n=%d err=%v", n, err)
	}
	if buf.String() != golden {
		t.Fatalf("serialisation drifted:\n got: %q\nwant: %q", buf.String(), golden)
	}
	r := ParseReader(&buf)
	var back []Request
	for {
		req, ok := r.Next()
		if !ok {
			break
		}
		back = append(back, req)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("streamed %d requests, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		if back[i] != reqs[i] {
			t.Fatalf("request %d: %+v != %+v", i, back[i], reqs[i])
		}
	}
}

func TestParseReaderStopsAtBadLine(t *testing.T) {
	r := ParseReader(strings.NewReader("0 W 0 4096\n0 Q 0 4096\n"))
	if _, ok := r.Next(); !ok {
		t.Fatal("valid first line rejected")
	}
	if _, ok := r.Next(); ok {
		t.Fatal("bad op accepted")
	}
	if r.Err() == nil {
		t.Fatal("error not reported")
	}
	// A terminated reader stays terminated.
	if _, ok := r.Next(); ok || r.Err() == nil {
		t.Fatal("reader resumed after error")
	}
}

func TestParseRejectsNonFiniteArrivals(t *testing.T) {
	for _, line := range []string{"nan W 0 4096", "+inf W 0 4096", "-1 W 0 4096"} {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("line %q: expected parse error", line)
		}
	}
}

func TestParsePatternCaseInsensitive(t *testing.T) {
	// Regression: mixed-case forms like "Sw"/"Rw" used to be rejected while
	// "sw" and "SW" parsed.
	cases := map[string]Pattern{
		"Sw": SeqWrite, "sW": SeqWrite, "SW": SeqWrite, "sw": SeqWrite,
		"Sr": SeqRead, "Rw": RandWrite, "rW": RandWrite, "Rr": RandRead,
		"Seq-Write": SeqWrite, "RAND-READ": RandRead, "RandWrite": RandWrite,
		" sw ": SeqWrite,
	}
	for in, want := range cases {
		got, err := ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// errStream yields one request then fails, like a replay source hitting a
// malformed line.
type errStream struct{ n int }

func (s *errStream) Next() (Request, bool) {
	if s.n == 0 {
		s.n++
		return Request{Op: OpWrite, Bytes: 4096}, true
	}
	return Request{}, false
}
func (s *errStream) Err() error { return fmt.Errorf("boom") }

func TestWriteReaderSurfacesStreamErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteReader(&buf, &errStream{}); err == nil {
		t.Fatal("stream error swallowed; output silently truncated")
	}
}
