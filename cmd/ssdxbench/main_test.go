package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// asMain makes the test binary behave as the command when set in its
// environment, so the tests (and the workload processes the command spawns
// by re-executing itself) need no separate build.
const asMain = "SSDXBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// command runs the benchmark with args and returns its standard output.
func command(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ssdxbench %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// summary parses "workload metric value unit n=..." lines into
// workload -> metric -> the rest of the line.
func summary(t *testing.T, out string) map[string]map[string]string {
	t.Helper()
	got := map[string]map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(line, "{") {
			continue
		}
		if got[f[0]] == nil {
			got[f[0]] = map[string]string{}
		}
		got[f[0]][f[1]] = strings.Join(f[2:], " ")
	}
	return got
}

func checkPrinted(t *testing.T, got map[string]map[string]string, list []metricDef) {
	t.Helper()
	for _, w := range workloads {
		for _, m := range list {
			if _, ok := got[w.name][m.Name]; !ok {
				t.Errorf("%s: metric %s not printed", w.name, m.Name)
			}
		}
		for name := range got[w.name] {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.name, name)
			}
		}
		if v := got[w.name]["fail_frac"]; !strings.HasPrefix(v, "0 ") {
			t.Errorf("%s: fail_frac %s", w.name, v)
		}
	}
}

func TestScaledRunsPrintEveryMetricAndRepeat(t *testing.T) {
	first := summary(t, command(t, "-scale", "0.01"))
	checkPrinted(t, first, endToEnd)
	second := summary(t, command(t, "-scale", "0.01"))
	for _, w := range workloads {
		d := first[w.name]["digest"]
		if d == "" || d != second[w.name]["digest"] {
			t.Errorf("%s: digests %q and %q differ between two runs", w.name, d, second[w.name]["digest"])
		}
	}
}

func TestLayersPrintEveryMetricAndWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	checkPrinted(t, summary(t, command(t, "-scale", "0.01", "-layers", "-trace", path)), perLayer)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	procs, spans := map[int]bool{}, 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
			procs[ev.PID] = true
			if ev.Args["run"] == nil {
				t.Fatalf("span %q has no run id", ev.Name)
			}
		}
	}
	if len(procs) != len(workloads) || spans < 10*len(workloads) {
		t.Errorf("trace holds %d spans over %d processes", spans, len(procs))
	}
}

func TestResultLine(t *testing.T) {
	for _, mode := range []struct {
		trace string
		list  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		out := command(t, "--workload", "nvme-tenants-wrr", "--seed", "3", "--seconds", "0",
			"--trace", mode.trace, "-scale", "0.01")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("--trace %s: last line: %v", mode.trace, err)
		}
		keys := make([]string, 0, len(res))
		for k := range res {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
			t.Fatalf("--trace %s: keys %v, want %v", mode.trace, keys, want)
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if string(res["correct"]) != "true" || len(metrics) != len(mode.list) {
			t.Errorf("--trace %s: correct=%s with %d metrics, want %d", mode.trace, res["correct"], len(metrics), len(mode.list))
		}
		for _, m := range mode.list {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s = %+v", mode.trace, m.Name, got)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the command: the same workloads
// and the same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nwant %+v", b.PerLayer, perLayer)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if !slices.Equal(b.Paths, []string{"cmd/ssdxbench"}) || b.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

func TestCheckDigest(t *testing.T) {
	d := digestFile{"7": {"w": "aa"}}
	for _, tc := range []struct {
		seed    uint64
		scale   float64
		digest  string
		earlier []sample
		fail    bool
	}{
		{7, 1, "aa", nil, false},
		{7, 1, "bb", nil, true},                           // committed digest differs
		{7, 0.5, "bb", []sample{{Digest: "bb"}}, false},   // not full scale: reps agree
		{8, 1, "bb", []sample{{Digest: "cc"}}, true},      // uncommitted seed: reps differ
		{8, 1, "bb", []sample{{Digest: "bb"}, {}}, false}, // failed earlier sample has no digest
	} {
		s := sample{Workload: "w", Digest: tc.digest}
		bench{seed: tc.seed, scale: tc.scale, digests: d}.checkDigest(&s, tc.earlier)
		if s.Failed != tc.fail {
			t.Errorf("seed %d scale %g digest %s: failed=%v (%s), want %v", tc.seed, tc.scale, tc.digest, s.Failed, s.Err, tc.fail)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := metricDef{Name: "sim_req_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{98, 99, 97, 98, 99}, "ok"},
		{[]float64{80, 81, 79, 80, 80}, "REGRESSION"},
		{[]float64{60, 100, 140, 95, 105}, "unresolved"},
		{[]float64{120, 121, 119, 120, 120}, "ok (better in every run)"},
	} {
		if got := verdict(m, parent, tc.change); got != tc.want {
			t.Errorf("verdict(%v) = %q, want %q", tc.change, got, tc.want)
		}
	}
}
