package ecc

import (
	"math"
	"testing"
)

func TestLatencyModels(t *testing.T) {
	for _, lm := range []LatencyModel{BitSerialLatency(), ByteParallelLatency()} {
		if lm.Encode(40) <= 0 || lm.Decode(40) <= 0 {
			t.Fatalf("%s: non-positive latency", lm.Name)
		}
		if lm.Decode(40) <= lm.Decode(8) {
			t.Fatalf("%s: decode latency must grow with t", lm.Name)
		}
	}
	// The paper's key claim: encode latency is "not substantially
	// affected" by t, decode latency "heavily grows" with t.
	lm := BitSerialLatency()
	encGrowth := float64(lm.Encode(40)-lm.Encode(8)) / float64(lm.Encode(8))
	decGrowth := float64(lm.Decode(40)-lm.Decode(8)) / float64(lm.Decode(8))
	if encGrowth > 0.25 {
		t.Fatalf("encode latency grows too much with t: %v", encGrowth)
	}
	if decGrowth < 1.0 {
		t.Fatalf("decode latency growth too weak: %v", decGrowth)
	}
}

func TestFixedScheme(t *testing.T) {
	s := FixedBCH{T: 40, Lat: BitSerialLatency()}
	if s.EncodeLatency(0) != s.Lat.Encode(40) || s.EncodeLatency(1) != s.Lat.Encode(40) {
		t.Fatalf("fixed scheme must encode at t=40 whatever the wear")
	}
	if s.DecodeLatency(0) != s.DecodeLatency(1) {
		t.Fatalf("fixed scheme latency must be wear-independent")
	}
}

func testRBER(w float64) float64 { return 5e-5 * math.Exp(3.3*w) }

func TestCorrectionTable(t *testing.T) {
	tbl, err := BuildCorrectionTable(TableParams{
		CodewordBits: 8192 + 560,
		TMax:         40,
		TStep:        4,
		TargetCFR:    1e-15,
		Buckets:      16,
		RBER:         testRBER,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Ts) != 16 {
		t.Fatalf("buckets %d", len(tbl.Ts))
	}
	// Monotone non-decreasing, within bounds, multiples of 4 (or TMax).
	for i, v := range tbl.Ts {
		if v < 4 || v > 40 {
			t.Fatalf("bucket %d: t=%d out of range", i, v)
		}
		if v != 40 && v%4 != 0 {
			t.Fatalf("bucket %d: t=%d not a step multiple", i, v)
		}
		if i > 0 && v < tbl.Ts[i-1] {
			t.Fatalf("table not monotone at %d: %v", i, tbl.Ts)
		}
	}
	// Fresh flash needs much less correction than end-of-life flash.
	if tbl.Ts[0] >= tbl.Ts[15] {
		t.Fatalf("no adaptivity: %v", tbl.Ts)
	}
	if tbl.Ts[15] != 40 {
		t.Fatalf("end of life should need the full capability, got %d", tbl.Ts[15])
	}
}

func TestAdaptiveScheme(t *testing.T) {
	tbl, _ := BuildCorrectionTable(TableParams{
		CodewordBits: 8752, TMax: 40, TStep: 4, TargetCFR: 1e-15, Buckets: 32, RBER: testRBER,
	})
	s := AdaptiveBCH{Table: tbl, Lat: BitSerialLatency()}
	if s.DecodeLatency(0.05) >= s.DecodeLatency(0.95) {
		t.Fatalf("adaptive decode latency must grow with wear")
	}
	// The central Fig. 5 relation: adaptive decodes faster than fixed
	// except at end of life, where they converge.
	fixed := FixedBCH{T: 40, Lat: BitSerialLatency()}
	if s.DecodeLatency(0.1) >= fixed.DecodeLatency(0.1) {
		t.Fatalf("adaptive not faster at low wear")
	}
	if s.DecodeLatency(0.99) != fixed.DecodeLatency(0.99) {
		t.Fatalf("adaptive and fixed must converge at end of life")
	}
}

func TestCorrectionTableEdges(t *testing.T) {
	tbl := CorrectionTable{Ts: []int{8, 16, 24}}
	if tbl.At(-1) != 8 || tbl.At(0) != 8 {
		t.Fatalf("low edge")
	}
	if tbl.At(0.5) != 16 {
		t.Fatalf("middle: %d", tbl.At(0.5))
	}
	if tbl.At(1.0) != 24 || tbl.At(5) != 24 {
		t.Fatalf("high edge")
	}
	if (CorrectionTable{}).At(0.5) != 0 {
		t.Fatalf("empty table")
	}
	if _, err := BuildCorrectionTable(TableParams{}); err == nil {
		t.Fatalf("empty params accepted")
	}
}

func TestBinomialTail(t *testing.T) {
	// Sanity against known values: P(X > 0) = 1 - (1-p)^n.
	n, p := 100, 0.01
	want := 1 - math.Pow(1-p, float64(n))
	got := binomialTail(n, p, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tail(>0) = %v want %v", got, want)
	}
	if binomialTail(n, 0, 5) != 0 || binomialTail(n, 1, 5) != 1 {
		t.Fatalf("degenerate p")
	}
	if binomialTail(10, 0.5, 10) != 0 {
		t.Fatalf("t >= n must give 0")
	}
	// Monotone in t.
	if binomialTail(1000, 0.001, 2) <= binomialTail(1000, 0.001, 5) {
		t.Fatalf("tail not decreasing in t")
	}
}

// TestTableStrengthSufficientForRBER checks that the table provisions for
// tail events: at each wear point the expected raw bit-error count of a
// codeword sits within the strength the table chooses.
func TestTableStrengthSufficientForRBER(t *testing.T) {
	const codewordBits = 512 + 80
	rber := func(w float64) float64 { return 2e-4 * math.Exp(3.0*w) }
	tbl, err := BuildCorrectionTable(TableParams{
		CodewordBits: codewordBits,
		TMax:         8,
		TStep:        2,
		TargetCFR:    1e-12,
		Buckets:      8,
		RBER:         rber,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wear := range []float64{0.1, 0.6, 0.95} {
		tw := tbl.At(wear)
		expected := max(int(rber(wear)*codewordBits), 1)
		if expected > tw {
			t.Fatalf("wear %v: expected %d errors exceeds chosen t=%d", wear, expected, tw)
		}
	}
}
