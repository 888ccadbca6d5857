package trace

import (
	"math"
	"strings"
	"testing"
)

const blktraceSample = `  8,16   3        1     0.000000000  4218  Q  WS 2083472 + 8 [fio]
  8,16   3        2     0.000000100  4218  G  WS 2083472 + 8 [fio]
  8,16   3        3     0.000040000  4218  D  WS 2083472 + 8 [fio]
  8,16   1        4     0.001000000  4219  Q   R 512000 + 256 [fio]
  8,16   1        5     0.001200000  4219  C   R 512000 + 256 [0]
  8,16   2        6     0.002000000  4220  Q   D 9000 + 16 [fstrim]
  8,16   2        7     0.003000000  4220  Q   N 0 [kworker/2:0]
CPU0 (sdb):
 Reads Queued:           1,        128KiB
Total (sdb):
 Reads Queued:           1,        128KiB
`

const msrSample = `128166372003061629,hm,0,Read,383496192,32768,413
128166372005061629,hm,0,Write,2748982272,4096,2326
128166372015061629,hm,0,read,383496192,512,413
`

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		sample string
		want   Format
	}{
		{"# comment\n0 W 0 4096\n", FormatCanonical},
		{"12.5 R 100 512\n", FormatCanonical},
		{blktraceSample, FormatBlktrace},
		{msrSample, FormatMSR},
		{"", FormatCanonical},
		{"# only comments\n", FormatCanonical},
	}
	for _, c := range cases {
		if got := DetectFormat([]byte(c.sample)); got != c.want {
			t.Errorf("DetectFormat(%.30q) = %v, want %v", c.sample, got, c.want)
		}
	}
}

func TestParseBlktrace(t *testing.T) {
	r, f := ParseReaderAuto(strings.NewReader(blktraceSample))
	if f != FormatBlktrace {
		t.Fatalf("detected %v", f)
	}
	var reqs []Request
	for {
		req, ok := r.Next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Only the three data-bearing Q events replay: WS write, R read, D trim.
	want := []Request{
		{ArrivalUS: 0, Op: OpWrite, LBA: 2083472, Bytes: 8 * SectorSize},
		{ArrivalUS: 1000, Op: OpRead, LBA: 512000, Bytes: 256 * SectorSize},
		{ArrivalUS: 2000, Op: OpTrim, LBA: 9000, Bytes: 16 * SectorSize},
	}
	if len(reqs) != len(want) {
		t.Fatalf("got %d requests (%+v), want %d", len(reqs), reqs, len(want))
	}
	for i, w := range want {
		if reqs[i].Op != w.Op || reqs[i].LBA != w.LBA || reqs[i].Bytes != w.Bytes ||
			math.Abs(reqs[i].ArrivalUS-w.ArrivalUS) > 1e-9 {
			t.Errorf("request %d = %+v, want %+v", i, reqs[i], w)
		}
	}
}

func TestParseMSR(t *testing.T) {
	r, f := ParseReaderAuto(strings.NewReader(msrSample))
	if f != FormatMSR {
		t.Fatalf("detected %v", f)
	}
	var reqs []Request
	for {
		req, ok := r.Next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	want := []Request{
		{ArrivalUS: 0, Op: OpRead, LBA: 383496192 / SectorSize, Bytes: 32768},
		{ArrivalUS: 200000, Op: OpWrite, LBA: 2748982272 / SectorSize, Bytes: 4096},
		{ArrivalUS: 1200000, Op: OpRead, LBA: 383496192 / SectorSize, Bytes: 512},
	}
	if len(reqs) != len(want) {
		t.Fatalf("got %d requests, want %d", len(reqs), len(want))
	}
	for i, w := range want {
		if reqs[i].Op != w.Op || reqs[i].LBA != w.LBA || reqs[i].Bytes != w.Bytes ||
			math.Abs(reqs[i].ArrivalUS-w.ArrivalUS) > 1e-9 {
			t.Errorf("request %d = %+v, want %+v", i, reqs[i], w)
		}
	}
}

func TestImportErrors(t *testing.T) {
	cases := []struct {
		format Format
		input  string
	}{
		{FormatMSR, "xyz,hm,0,Read,0,4096,1\n"},            // bad timestamp
		{FormatMSR, "1,hm,0,Flush,0,4096,1\n"},             // bad op
		{FormatMSR, "1,hm,0,Read,-5,4096,1\n"},             // bad offset
		{FormatMSR, "1,hm,0,Read,0\n"},                     // short row
		{FormatBlktrace, "8,0 0 1 xx 1 Q W 0 + 8 [p]\n"},   // bad time
		{FormatBlktrace, "8,0 0 1 0.0 1 Q W -1 + 8 [p]\n"}, // bad sector
		{FormatBlktrace, "8,0 0 1 0.0 1 Q W 0 + -8 [p]\n"}, // bad count
		{FormatBlktrace, "8,0 0 1 0.0 1 Q W\n"},            // truncated Q line (no sector)
	}
	for _, c := range cases {
		r := ParseReaderFormat(strings.NewReader(c.input), c.format)
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() == nil {
			t.Errorf("%v input %q parsed without error", c.format, c.input)
		}
	}
}
