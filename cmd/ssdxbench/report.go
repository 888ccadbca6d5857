package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// values collects one metric over the samples that did not fail.
func values(samples []sample, metric string) []float64 {
	var vs []float64
	for _, s := range samples {
		if v, ok := s.Metrics[metric]; ok && !s.Failed {
			vs = append(vs, v)
		}
	}
	return vs
}

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.Failed {
			n++
		}
	}
	return n
}

// printSummary prints one line per metric of one workload:
// "workload metric value unit n=<samples>", with quartiles when n > 1.
func printSummary(w io.Writer, name string, samples []sample, layers bool) {
	list := endToEnd
	if layers {
		list = append(append([]metricDef(nil), perLayer...), extraLayer...)
	}
	for _, m := range list {
		vs := values(samples, m.Name)
		if len(vs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(vs)
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", name, m.Name, med, m.Unit, len(vs))
		if len(vs) > 1 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", q1, q3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s %s %g %s n=%d\n", name, failFrac.Name,
		float64(failures(samples))/float64(len(samples)), failFrac.Unit, len(samples))
	for _, s := range samples {
		if s.Digest != "" {
			fmt.Fprintf(w, "%s digest %s\n", name, s.Digest)
			break
		}
	}
}

// printResultLine prints the machine-readable result of a one-workload run.
func printResultLine(w io.Writer, samples []sample, list []metricDef) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Attempted: len(samples), Failed: failures(samples), Metrics: map[string]valueUnit{}}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	for _, m := range list {
		if vs := values(samples, m.Name); len(vs) > 0 {
			if v := median(vs); !math.IsNaN(v) && !math.IsInf(v, 0) {
				line.Metrics[m.Name] = valueUnit{v, m.Unit}
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// readSamples loads an -out file.
func readSamples(path string) ([]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []sample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var s sample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// groupKey separates workloads, and per-layer passes from end-to-end runs.
func groupKey(s sample) string {
	if s.Layers {
		return s.Workload + " (layers)"
	}
	return s.Workload
}

func group(samples []sample) (map[string][]sample, []string) {
	g := map[string][]sample{}
	var order []string
	for _, s := range samples {
		k := groupKey(s)
		if _, ok := g[k]; !ok {
			order = append(order, k)
		}
		g[k] = append(g[k], s)
	}
	return g, order
}

// better reports whether a reads better than b for the metric.
func better(m metricDef, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// verdict judges one bounded metric of one workload: the change regresses
// when its median is worse than the parent's by more than the bound, and the
// comparison is unresolved when either side's spread is wider than the
// bound, unless every run of the change reads better than every run of the
// parent.
func verdict(m metricDef, parent, change []float64) string {
	if m.Bound == 0 {
		return "-"
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(m, c, p)
		}
	}
	worse := (cm - pm) / pm
	if m.Better == "higher" {
		worse = -worse
	}
	spread := math.Max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	switch {
	case allBetter:
		return "ok (better in every run)"
	case spread > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "REGRESSION"
	}
	return "ok"
}

// runCompare compares the samples of a parent commit with a change's.
func runCompare(args []string, claim string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ssdxbench -compare [-claim workload:metric] parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readSamples(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 2
	}
	change, err := readSamples(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 2
	}
	pg, order := group(parent)
	cg, _ := group(change)
	status := 0
	all := append(append(append([]metricDef(nil), endToEnd...), perLayer...), extraLayer...)
	fmt.Printf("%-30s %-32s %-36s %-36s %8s %6s  %s\n", "workload", "metric",
		"parent median [q1 q3] n", "change median [q1 q3] n", "delta", "bound", "verdict")
	side := func(vs []float64) string {
		q1, m, q3 := quartiles(vs)
		return fmt.Sprintf("%.6g [%.6g %.6g] %d", m, q1, q3, len(vs))
	}
	for _, k := range order {
		ps, cs := pg[k], cg[k]
		if len(cs) == 0 {
			fmt.Printf("%-30s missing from %s\n", k, args[1])
			status = 1
			continue
		}
		for _, m := range all {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := verdict(m, pv, cv)
			if v == "REGRESSION" {
				status = 1
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Printf("%-30s %-32s %-36s %-36s %+7.1f%% %6s  %s\n", k, m.Name, side(pv), side(cv),
				100*(median(cv)-median(pv))/math.Abs(median(pv)), bound, v)
		}
		pf := float64(failures(ps)) / float64(len(ps))
		cf := float64(failures(cs)) / float64(len(cs))
		v := "ok"
		if cf > pf {
			v, status = "REGRESSION", 1
		}
		fmt.Printf("%-30s %-32s %-36s %-36s %8s %6s  %s\n", k, failFrac.Name,
			fmt.Sprintf("%g %d", pf, len(ps)), fmt.Sprintf("%g %d", cf, len(cs)), "", "any", v)
	}
	if claim != "" {
		met, err := judgeClaim(claim, pg, cg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssdxbench:", err)
			return 2
		}
		if !met {
			status = 1
		}
	}
	return status
}

// judgeClaim applies the gain rule to the claimed metric: the change must
// win at least 9 in 10 of the parent/change pairs (samples paired in file
// order, which alternate when the two sides were run alternately; ties
// count for neither), and the medians must differ by more than the parent's
// interquartile range.
func judgeClaim(claim string, pg, cg map[string][]sample) (bool, error) {
	wl, name, ok := strings.Cut(claim, ":")
	m, known := lookupMetric(name)
	if !ok || !known {
		return false, fmt.Errorf("-claim wants workload:metric with a known metric, got %q", claim)
	}
	pv, cv := values(pg[wl], name), values(cg[wl], name)
	pairs := min(len(pv), len(cv))
	if pairs == 0 {
		return false, fmt.Errorf("-claim %s: no samples on one side", claim)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(m, cv[i], pv[i]) {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(pv)
	cm := median(cv)
	met := wins*10 >= 9*pairs && math.Abs(cm-pm) > pq3-pq1 && better(m, cm, pm)
	word := "not met"
	if met {
		word = "met"
	}
	fmt.Printf("claim %s %s: change won %d of %d pairs (%.0f%%); medians differ by %.6g %s, parent IQR %.6g: %s\n",
		wl, name, wins, pairs, 100*float64(wins)/float64(pairs), math.Abs(cm-pm), m.Unit, pq3-pq1, word)
	return met, nil
}
