package dse

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// fixture builds evaluations with known throughput/latency/WAF values.
func fixture(vals [][3]float64) []Eval {
	evals := make([]Eval, len(vals))
	for i, v := range vals {
		evals[i] = Eval{
			Point:  Point{Index: int64(i)},
			Result: core.Result{MBps: v[0], AllLat: workload.LatStats{MeanUS: v[1]}, WAF: v[2]},
		}
	}
	return evals
}

func mustObjectives(t *testing.T, spec string) []Objective {
	t.Helper()
	objs, err := ParseObjectives(spec)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestDominates(t *testing.T) {
	objs := mustObjectives(t, "mbps,latency")
	a := core.Result{MBps: 200, AllLat: workload.LatStats{MeanUS: 50}}
	b := core.Result{MBps: 100, AllLat: workload.LatStats{MeanUS: 80}}
	c := core.Result{MBps: 300, AllLat: workload.LatStats{MeanUS: 90}}
	if !Dominates(a, b, objs) {
		t.Error("a should dominate b (faster and lower latency)")
	}
	if Dominates(b, a, objs) {
		t.Error("b cannot dominate a")
	}
	if Dominates(a, c, objs) || Dominates(c, a, objs) {
		t.Error("a and c trade off; neither dominates")
	}
	if Dominates(a, a, objs) {
		t.Error("a point never dominates itself")
	}
}

// TestParetoFrontKnownFixture checks the front on a hand-computed fixture:
// maximise throughput, minimise latency and WAF.
func TestParetoFrontKnownFixture(t *testing.T) {
	objs := mustObjectives(t, "mbps,latency,waf")
	evals := fixture([][3]float64{
		{250, 40, 1.0}, // 0: on the front (best latency+waf at high mbps)
		{300, 90, 1.5}, // 1: on the front (best mbps)
		{250, 45, 1.0}, // 2: dominated by 0 (same mbps/waf, worse latency)
		{100, 80, 2.0}, // 3: dominated by 0 and by 2, so it peels to rank 2
		{120, 30, 3.0}, // 4: on the front (best latency)
		{90, 95, 0.5},  // 5: on the front (best waf)
	})
	front := Front(evals, objs)
	var got []int64
	for _, ev := range front {
		got = append(got, ev.Point.Index)
	}
	want := []int64{0, 1, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	ranks := Ranks(evals, objs)
	wantRanks := []int{0, 0, 1, 2, 0, 0}
	if !reflect.DeepEqual(ranks, wantRanks) {
		t.Fatalf("ranks = %v, want %v", ranks, wantRanks)
	}
}

func TestRanksPeelNestedFronts(t *testing.T) {
	objs := mustObjectives(t, "mbps,latency")
	// Three nested fronts of two points each.
	evals := fixture([][3]float64{
		{300, 10, 0}, {100, 5, 0}, // rank 0
		{200, 20, 0}, {90, 15, 0}, // rank 1
		{100, 30, 0}, {80, 25, 0}, // rank 2
	})
	ranks := Ranks(evals, objs)
	want := []int{0, 0, 1, 1, 2, 2}
	if !reflect.DeepEqual(ranks, want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
}

func TestFailedEvaluationsExcluded(t *testing.T) {
	objs := mustObjectives(t, "mbps")
	evals := fixture([][3]float64{{100, 0, 0}, {900, 0, 0}})
	evals[1].Err = "stalled"
	front := Front(evals, objs)
	if len(front) != 1 || front[0].Point.Index != 0 {
		t.Fatalf("failed eval leaked onto the front: %+v", front)
	}
	if ranks := Ranks(evals, objs); ranks[1] != -1 {
		t.Errorf("failed eval rank = %d, want -1", ranks[1])
	}
}

func TestSortByRank(t *testing.T) {
	objs := mustObjectives(t, "mbps,latency")
	evals := fixture([][3]float64{
		{200, 20, 0}, // rank 1 (dominated by point 1 only)
		{300, 10, 0}, // rank 0, best mbps
		{100, 5, 0},  // rank 0, best latency
		{90, 30, 0},  // rank 2 (still dominated by point 0 after peeling)
	})
	evals = append(evals, Eval{Point: Point{Index: 4}, Err: "boom"})
	sorted := SortByRank(evals, objs)
	var got []int64
	for _, ev := range sorted {
		got = append(got, ev.Point.Index)
	}
	// Rank 0 first (mbps 300 before 100), then rank 1, rank 2, failed last.
	want := []int64{1, 2, 0, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestSortByRankWithinRank orders one rank's points against their input
// order: by the first objective, best first, and by input order only where
// that objective ties.
func TestSortByRankWithinRank(t *testing.T) {
	objs := mustObjectives(t, "mbps,latency")
	evals := fixture([][3]float64{
		{100, 5, 0},  // rank 0, worst mbps
		{200, 8, 0},  // rank 0, ties point 3 on mbps
		{300, 10, 0}, // rank 0, best mbps
		{200, 8, 0},
	})
	var got []int64
	for _, ev := range SortByRank(evals, objs) {
		got = append(got, ev.Point.Index)
	}
	if want := []int64{2, 1, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("mbps, latency ,waf")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || !objs[0].Maximize || objs[1].Maximize || objs[2].Maximize {
		t.Errorf("unexpected objective directions: %+v", objs)
	}
	if _, err := ParseObjectives("nope"); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := ParseObjectives(""); err == nil {
		t.Error("empty objective list accepted")
	}
}
