// Package trace defines the host I/O trace format consumed by the host
// interface's command/data trace player (paper §III-C1) and provides
// IOZone-style synthetic workload generators (paper §III-G uses IOZone
// sequential/random read/write patterns with 4 KB payloads).
//
// The on-disk format is one request per line:
//
//	<arrival_us> <op> <lba> <bytes>
//
// where op is one of W, R, T (trim), F (flush); lba is in 512-byte sectors;
// arrival_us is the earliest issue time in microseconds (0 means "as soon as
// the queue admits it", the closed-loop mode used by all paper experiments).
// Lines beginning with '#' are comments.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Op is the request type.
type Op uint8

// Request operations.
const (
	OpWrite Op = iota
	OpRead
	OpTrim
	OpFlush
)

// String returns the single-letter trace encoding of the op.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "W"
	case OpRead:
		return "R"
	case OpTrim:
		return "T"
	case OpFlush:
		return "F"
	}
	return "?"
}

// ParseOp decodes a single-letter op code.
func ParseOp(s string) (Op, error) {
	switch strings.ToUpper(s) {
	case "W", "WRITE":
		return OpWrite, nil
	case "R", "READ":
		return OpRead, nil
	case "T", "TRIM":
		return OpTrim, nil
	case "F", "FLUSH":
		return OpFlush, nil
	}
	return 0, fmt.Errorf("trace: unknown op %q", s)
}

// SectorSize is the logical block size used for LBAs.
const SectorSize = 512

// Request is one host command.
type Request struct {
	ArrivalUS float64 // earliest issue time, µs; 0 = closed loop
	Op        Op
	LBA       int64 // 512-byte sectors
	Bytes     int64
}

// EndLBA returns the first sector after the request's extent.
func (r Request) EndLBA() int64 {
	sectors := (r.Bytes + SectorSize - 1) / SectorSize
	return r.LBA + sectors
}

// Stream supplies requests to a trace player one at a time.
type Stream interface {
	// Next returns the next request, or ok=false when the stream ends.
	Next() (req Request, ok bool)
}

// SliceStream is a Stream over an in-memory request slice.
type SliceStream struct {
	Reqs []Request
	pos  int
}

// NewSliceStream wraps reqs in a Stream.
func NewSliceStream(reqs []Request) *SliceStream {
	return &SliceStream{Reqs: reqs}
}

// Next implements Stream.
func (s *SliceStream) Next() (Request, bool) {
	if s.pos >= len(s.Reqs) {
		return Request{}, false
	}
	r := s.Reqs[s.pos]
	s.pos++
	return r, true
}

// Parse reads a whole trace from r (a materialising convenience over
// ParseReader; replay paths stream instead).
func Parse(r io.Reader) ([]Request, error) {
	var reqs []Request
	sr := ParseReader(r)
	for {
		req, ok := sr.Next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// Write serialises reqs to w in the canonical text format.
func Write(w io.Writer, reqs []Request) error {
	_, err := WriteReader(w, NewSliceStream(reqs))
	return err
}
