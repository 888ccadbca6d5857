package dse

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Objective is one optimisation direction over a result metric.
type Objective struct {
	Name     string
	Maximize bool
	Value    func(core.Result) float64
}

// score returns the metric oriented so that larger is always better.
func (o Objective) score(res core.Result) float64 {
	v := o.Value(res)
	if !o.Maximize {
		return -v
	}
	return v
}

// Built-in objectives, addressable by name in ParseObjectives. Throughput,
// latency and wear amplification are the paper's three evaluation lenses
// (Figs. 3/4, the latency breakdowns, and the Fig. 5 endurance study).
var objectives = map[string]Objective{
	"mbps":     {Name: "mbps", Maximize: true, Value: func(r core.Result) float64 { return r.MBps }},
	"ramp":     {Name: "ramp", Maximize: true, Value: func(r core.Result) float64 { return r.RampMBps }},
	"latency":  {Name: "latency", Maximize: false, Value: func(r core.Result) float64 { return r.AllLat.MeanUS }},
	"p99":      {Name: "p99", Maximize: false, Value: func(r core.Result) float64 { return r.AllLat.P99US }},
	"p999":     {Name: "p999", Maximize: false, Value: func(r core.Result) float64 { return r.AllLat.P999US }},
	"readp99":  {Name: "readp99", Maximize: false, Value: func(r core.Result) float64 { return r.ReadLat.P99US }},
	"writep99": {Name: "writep99", Maximize: false, Value: func(r core.Result) float64 { return r.WriteLat.P99US }},
	"waf":      {Name: "waf", Maximize: false, Value: func(r core.Result) float64 { return r.WAF }},
	"erases":   {Name: "erases", Maximize: false, Value: func(r core.Result) float64 { return float64(r.Erases) }},
	"wearout": {Name: "wearout", Maximize: false, Value: func(r core.Result) float64 {
		// Flash wear per useful byte: measured amplification weighted by
		// erase traffic. Degenerates to WAF when no erases were observed.
		if r.Erases == 0 {
			return r.WAF
		}
		return r.WAF * float64(r.Erases)
	}},
	"gc":     {Name: "gc", Maximize: false, Value: func(r core.Result) float64 { return float64(r.GCCopies) }},
	"events": {Name: "events", Maximize: false, Value: func(r core.Result) float64 { return float64(r.Events) }},
	// Backlog growth rate: sweeps that mix open-loop arrival rates can
	// optimise for designs that stay out of saturation.
	"backlog": {Name: "backlog", Maximize: false, Value: func(r core.Result) float64 { return r.BacklogGrowth }},
	// Multi-tenant QoS objectives (tenant sweeps only; zero/neutral on
	// single-stream results). fairness maximises Jain's index over
	// weight-normalised tenant throughput; maxslowdown minimises the worst
	// tenant's slowdown against the best-served one; worstp99 minimises the
	// worst per-tenant p99 — the tail-isolation lens, which a drive-level
	// p99 hides when a small victim tenant drowns in a big aggressor's ops.
	"fairness": {Name: "fairness", Maximize: true, Value: func(r core.Result) float64 { return r.Fairness }},
	"maxslowdown": {Name: "maxslowdown", Maximize: false, Value: func(r core.Result) float64 {
		var worst float64
		for _, t := range r.Tenants {
			if t.Slowdown > worst {
				worst = t.Slowdown
			}
		}
		return worst
	}},
	"worstp99": {Name: "worstp99", Maximize: false, Value: func(r core.Result) float64 {
		if len(r.Tenants) == 0 {
			return r.AllLat.P99US
		}
		var worst float64
		for _, t := range r.Tenants {
			if t.AllLat.P99US > worst {
				worst = t.AllLat.P99US
			}
		}
		return worst
	}},
	// Mean NAND-die busy fraction (requires a utilization-traced sweep;
	// untraced results score 0): maximising it finds the configurations
	// whose host throughput actually turns into flash-array work — the
	// paper's "is the added parallelism used?" question as an objective.
	"utilization": {Name: "utilization", Maximize: true, Value: func(r core.Result) float64 {
		if r.Utilization == nil {
			return 0
		}
		return r.Utilization.NANDUtil
	}},
}

// Per-stage latency objectives ("<stage>p99", e.g. nandp99): minimise one
// pipeline stage's tail latency — sweeping on where latency comes from, not
// just how much of it there is.
func init() {
	for _, st := range telemetry.Stages() {
		st := st
		name := st.String() + "p99"
		objectives[name] = Objective{
			Name:     name,
			Maximize: false,
			Value:    func(r core.Result) float64 { return r.Stages.ByStage(st).P99US },
		}
	}
}

// ObjectiveByName resolves a built-in objective.
func ObjectiveByName(name string) (Objective, error) {
	o, ok := objectives[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		names := make([]string, 0, len(objectives))
		for n := range objectives {
			names = append(names, n)
		}
		sort.Strings(names)
		return Objective{}, fmt.Errorf("dse: unknown objective %q (have %s)", name, strings.Join(names, ", "))
	}
	return o, nil
}

// ParseObjectives resolves a comma-separated objective list, e.g.
// "mbps,latency,waf".
func ParseObjectives(spec string) ([]Objective, error) {
	var objs []Objective
	for _, part := range strings.Split(spec, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		o, err := ObjectiveByName(part)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("dse: empty objective list %q", spec)
	}
	return objs, nil
}

// Dominates reports whether result a Pareto-dominates result b: no worse in
// every objective and strictly better in at least one.
func Dominates(a, b core.Result, objs []Objective) bool {
	better := false
	for _, o := range objs {
		sa, sb := o.score(a), o.score(b)
		if sa < sb {
			return false
		}
		if sa > sb {
			better = true
		}
	}
	return better
}

// Front returns the non-dominated evaluations (the Pareto-optimal designs)
// in input order. Failed evaluations never appear on the front.
func Front(evals []Eval, objs []Objective) []Eval {
	ranks := Ranks(evals, objs)
	var front []Eval
	for i, ev := range evals {
		if ranks[i] == 0 {
			front = append(front, ev)
		}
	}
	return front
}

// Ranks assigns each evaluation its dominance depth: 0 for the Pareto
// front, 1 for the front once rank-0 points are removed, and so on — the
// non-dominated sorting used to order designs under multiple objectives.
// Failed evaluations get rank -1.
func Ranks(evals []Eval, objs []Objective) []int {
	ranks := make([]int, len(evals))
	active := 0
	for i, ev := range evals {
		if ev.Failed() {
			ranks[i] = -1
		} else {
			ranks[i] = 0
			active++
		}
	}
	// Peel fronts: a point is on the current front if no other unassigned
	// point dominates it.
	assigned := 0
	for rank := 0; assigned < active; rank++ {
		var frontIdx []int
		for i := range evals {
			if ranks[i] != rank {
				continue
			}
			dominated := false
			for j := range evals {
				if i == j || ranks[j] != rank {
					continue
				}
				if Dominates(evals[j].Result, evals[i].Result, objs) {
					dominated = true
					break
				}
			}
			if dominated {
				ranks[i] = rank + 1
			} else {
				frontIdx = append(frontIdx, i)
			}
		}
		assigned += len(frontIdx)
		if len(frontIdx) == 0 && assigned < active {
			// Cannot happen: every finite poset has minimal elements.
			break
		}
	}
	return ranks
}

// SortByRank orders evaluations by dominance rank, breaking ties with the
// first objective (best first) and then input order. Failed evaluations
// sort last. It also returns each sorted evaluation's rank (Ranks in the
// sorted order), so callers that print ranks run the quadratic sort once.
// The returned slices are fresh; evals is not modified.
func SortByRank(evals []Eval, objs []Objective) ([]Eval, []int) {
	ranks := Ranks(evals, objs)
	idx := make([]int, len(evals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		ri, rj := ranks[i], ranks[j]
		if ri < 0 {
			ri = int(^uint(0) >> 1) // failed last
		}
		if rj < 0 {
			rj = int(^uint(0) >> 1)
		}
		if ri != rj {
			return ri < rj
		}
		if len(objs) > 0 && ri != int(^uint(0)>>1) {
			si := objs[0].score(evals[i].Result)
			sj := objs[0].score(evals[j].Result)
			if si != sj {
				return si > sj
			}
		}
		return i < j
	})
	out := make([]Eval, len(evals))
	outRanks := make([]int, len(evals))
	for k, i := range idx {
		out[k], outRanks[k] = evals[i], ranks[i]
	}
	return out, outRanks
}
