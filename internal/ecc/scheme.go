// Package ecc implements the SSD's error-correction subsystem. The paper
// treats ECC as a parametric time-delay component (§III-D2) whose encode and
// decode latencies — not its logic — shape SSD performance, and compares a
// fixed 40-bit BCH against an adaptive BCH whose correction strength follows
// a static P/E-cycle table (§IV-B, refs [22][23]). This package provides
// those latency schemes and the correction table; it models no codec logic.
package ecc

import (
	"errors"
	"math"

	"repro/internal/sim"
)

// LatencyModel is the parametric time-delay description of an ECC engine
// (the paper's PTD abstraction): affine encode/decode latencies in the
// correction capability t. Encoding latency is essentially independent of t
// (LFSR pass over the codeword), while decode latency grows with t (Chien
// search and key-equation work scale with correction strength) — the paper's
// §IV-B makes exactly this argument for why adaptive BCH wins on reads.
type LatencyModel struct {
	Name    string
	EncBase sim.Time
	EncPerT sim.Time
	DecBase sim.Time
	DecPerT sim.Time
}

// Encode returns the encode latency at correction strength t.
func (l LatencyModel) Encode(t int) sim.Time {
	return l.EncBase + sim.Time(t)*l.EncPerT
}

// Decode returns the decode latency at correction strength t.
func (l LatencyModel) Decode(t int) sim.Time {
	return l.DecBase + sim.Time(t)*l.DecPerT
}

// BitSerialLatency models a compact bit-serial BCH engine at the controller
// clock: the profile used in the wear-out experiment (Fig. 5), where a
// shared engine is the read-path bottleneck.
func BitSerialLatency() LatencyModel {
	return LatencyModel{
		Name:    "bit-serial",
		EncBase: 150 * sim.Microsecond,
		EncPerT: 500 * sim.Nanosecond,
		DecBase: 20 * sim.Microsecond,
		DecPerT: 3500 * sim.Nanosecond,
	}
}

// ByteParallelLatency models a wide (byte-parallel) pipelined engine as
// found in commercial controllers: fast enough that ECC is not the
// bottleneck, used by the Fig. 2 validation platform.
func ByteParallelLatency() LatencyModel {
	return LatencyModel{
		Name:    "byte-parallel",
		EncBase: 6 * sim.Microsecond,
		EncPerT: 50 * sim.Nanosecond,
		DecBase: 8 * sim.Microsecond,
		DecPerT: 400 * sim.Nanosecond,
	}
}

// Scheme selects the correction strength used for a page written at a given
// wear level and exposes the resulting latencies.
type Scheme interface {
	// EncodeLatency and DecodeLatency report engine occupancy per codeword
	// group (one page).
	EncodeLatency(w float64) sim.Time
	DecodeLatency(w float64) sim.Time
}

// FixedBCH always corrects T bits — the worst-case-provisioned design.
type FixedBCH struct {
	T   int
	Lat LatencyModel
}

// EncodeLatency implements Scheme.
func (f FixedBCH) EncodeLatency(float64) sim.Time { return f.Lat.Encode(f.T) }

// DecodeLatency implements Scheme.
func (f FixedBCH) DecodeLatency(float64) sim.Time { return f.Lat.Decode(f.T) }

// AdaptiveBCH follows a static correction table indexed by P/E wear: every
// page write selects the table entry for the block's current wear (paper
// §IV-B: "a static correction table that correlates the target correction
// capability with the memory page wear-out").
type AdaptiveBCH struct {
	Table CorrectionTable
	Lat   LatencyModel
}

// EncodeLatency implements Scheme.
func (a AdaptiveBCH) EncodeLatency(w float64) sim.Time { return a.Lat.Encode(a.Table.At(w)) }

// DecodeLatency implements Scheme.
func (a AdaptiveBCH) DecodeLatency(w float64) sim.Time { return a.Lat.Decode(a.Table.At(w)) }

// CorrectionTable maps normalised wear buckets to correction strengths.
type CorrectionTable struct {
	// Ts[i] applies to wear in [i/len, (i+1)/len); the last entry also
	// covers wear >= 1.
	Ts []int
}

// At returns the correction strength for wear w.
func (c CorrectionTable) At(w float64) int {
	if len(c.Ts) == 0 {
		return 0
	}
	if w < 0 {
		w = 0
	}
	i := int(w * float64(len(c.Ts)))
	if i >= len(c.Ts) {
		i = len(c.Ts) - 1
	}
	return c.Ts[i]
}

// TableParams configures correction-table generation.
type TableParams struct {
	CodewordBits int     // protected bits per codeword
	TMax         int     // hardware ceiling (the fixed design's T)
	TStep        int     // adaptive codecs switch in discrete steps
	TargetCFR    float64 // acceptable codeword failure rate (post-ECC)
	Buckets      int     // wear resolution of the table
	RBER         func(w float64) float64
}

// BuildCorrectionTable computes, for each wear bucket, the minimal t (in
// steps of TStep, capped at TMax) such that the probability of more than t
// raw bit errors in a codeword stays below TargetCFR.
func BuildCorrectionTable(p TableParams) (CorrectionTable, error) {
	if p.CodewordBits <= 0 || p.TMax <= 0 || p.Buckets <= 0 || p.RBER == nil {
		return CorrectionTable{}, errors.New("ecc: incomplete table parameters")
	}
	if p.TStep <= 0 {
		p.TStep = 1
	}
	if p.TargetCFR <= 0 {
		p.TargetCFR = 1e-15
	}
	ts := make([]int, p.Buckets)
	for i := 0; i < p.Buckets; i++ {
		w := (float64(i) + 0.5) / float64(p.Buckets)
		rber := p.RBER(w)
		t := requiredT(p.CodewordBits, rber, p.TargetCFR, p.TMax, p.TStep)
		ts[i] = t
	}
	// Enforce monotonicity (RBER models are monotone, but guard rounding).
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			ts[i] = ts[i-1]
		}
	}
	return CorrectionTable{Ts: ts}, nil
}

// requiredT finds the minimal correction strength meeting the target
// codeword failure rate, rounded up to a multiple of step and capped.
func requiredT(nBits int, rber, target float64, tMax, step int) int {
	for t := step; t < tMax; t += step {
		if binomialTail(nBits, rber, t) <= target {
			return t
		}
	}
	return tMax
}

// binomialTail returns P(X > t) for X ~ Binomial(n, p), computed in log
// space for numerical stability at the tiny probabilities ECC design uses.
func binomialTail(n int, p float64, t int) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if t >= n {
		return 0
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for k := t + 1; k <= n; k++ {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		logTerm := lgN - lgK - lgNK + float64(k)*logP + float64(n-k)*logQ
		term := math.Exp(logTerm)
		sum += term
		// Terms fall off geometrically past the mean; stop once negligible.
		if k > t+5 && term < sum*1e-18 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
