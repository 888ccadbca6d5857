package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Pattern selects an IOZone-style access pattern.
type Pattern uint8

// Supported synthetic patterns; the paper's validation (§III-G) uses all
// four at 4 KB, and the exploration experiments (§IV-A) use SeqWrite.
const (
	SeqWrite Pattern = iota
	SeqRead
	RandWrite
	RandRead
)

// String names the pattern using the paper's abbreviations.
func (p Pattern) String() string {
	switch p {
	case SeqWrite:
		return "SW"
	case SeqRead:
		return "SR"
	case RandWrite:
		return "RW"
	case RandRead:
		return "RR"
	}
	return "?"
}

// ParsePattern decodes SW/SR/RW/RR or long names, uniformly
// case-insensitive ("Sw" and "Rand-Write" parse like "sw" and "RAND-WRITE").
func ParsePattern(s string) (Pattern, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sw", "seq-write", "seqwrite":
		return SeqWrite, nil
	case "sr", "seq-read", "seqread":
		return SeqRead, nil
	case "rw", "rand-write", "randwrite":
		return RandWrite, nil
	case "rr", "rand-read", "randread":
		return RandRead, nil
	}
	return 0, fmt.Errorf("trace: unknown pattern %q", s)
}

// IsWrite reports whether the pattern issues writes.
func (p Pattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// IsRandom reports whether the pattern addresses randomly.
func (p Pattern) IsRandom() bool { return p == RandWrite || p == RandRead }

// WorkloadSpec describes a synthetic benchmark run.
type WorkloadSpec struct {
	Pattern   Pattern
	BlockSize int64 // bytes per request (paper: 4096)
	SpanBytes int64 // addressable region exercised
	Requests  int   // number of requests to generate
	Seed      uint64
	AlignLBA  bool // align random LBAs to BlockSize (IOZone does)
}

// DefaultBlockSize is the 4 KB payload used throughout the paper.
const DefaultBlockSize = 4096

// Validate checks the spec for consistency.
func (w WorkloadSpec) Validate() error {
	if w.BlockSize <= 0 || w.BlockSize%SectorSize != 0 {
		return fmt.Errorf("trace: block size %d must be a positive multiple of %d", w.BlockSize, SectorSize)
	}
	if w.SpanBytes < w.BlockSize {
		return fmt.Errorf("trace: span %d smaller than block size %d", w.SpanBytes, w.BlockSize)
	}
	if w.Requests <= 0 {
		return fmt.Errorf("trace: request count %d must be positive", w.Requests)
	}
	return nil
}

// Generate materialises the workload as a request slice. Sequential patterns
// wrap around the span; random patterns draw uniform block-aligned offsets.
// All requests are closed-loop (arrival 0), matching the paper's methodology
// of saturating the device through the host interface queue.
func (w WorkloadSpec) Generate() ([]Request, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(w.Seed ^ 0x55de10725eed0001)
	blocks := w.SpanBytes / w.BlockSize
	sectorsPerBlock := w.BlockSize / SectorSize
	reqs := make([]Request, 0, w.Requests)
	op := OpWrite
	if !w.Pattern.IsWrite() {
		op = OpRead
	}
	var seq int64
	for i := 0; i < w.Requests; i++ {
		var blk int64
		if w.Pattern.IsRandom() {
			blk = rng.Int63n(blocks)
		} else {
			blk = seq % blocks
			seq++
		}
		reqs = append(reqs, Request{
			Op:    op,
			LBA:   blk * sectorsPerBlock,
			Bytes: w.BlockSize,
		})
	}
	return reqs, nil
}
