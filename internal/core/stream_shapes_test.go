package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/nvme"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamShapesGolden pins one run of every workload-stream shape through
// every player entry point: the record/phase marks, live classification and
// arrival rebasing each shape carries all show up in the Result and the
// Perfetto bytes.
const streamShapesGolden = "testdata/stream_shapes.golden"

// scrubLabels blanks the workload labels a replay phase fills with the path
// of a temporary trace file.
func scrubLabels(res *Result) {
	for i := range res.Phases {
		res.Phases[i].Label = ""
	}
	for i := range res.Tenants {
		for j := range res.Tenants[i].Phases {
			res.Tenants[i].Phases[j].Label = ""
		}
	}
}

// TestStreamShapesGolden runs a plain synthetic stream, a one-phase chain, a
// precondition -> measure chain whose first-phase writes straggle past the
// window reset, a bare replay, a replay inside a chain, an explicit request
// list and a tenant set with a phased and a replayed tenant, each on the
// serial core with event tracing on, and compares every run's digest with
// the committed golden.
func TestStreamShapesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform stream-shape corridor")
	}
	mixedPath := writeTrace(t, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22,
		Requests: 300, Seed: 41, WriteFrac: 0.5,
	})
	seqPath := writeTrace(t, workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 22, Requests: 300, Seed: 43,
	})
	synth := func(p trace.Pattern, n int, seed uint64) workload.Spec {
		return workload.Patterned(p, 4096, 1<<22, n, seed)
	}
	open := synth(trace.RandRead, 300, 47)
	open.WriteFrac = 0.3
	open.Skew = workload.Skew{Kind: workload.SkewZipf, Theta: 0.9}
	open.Arrival = workload.Arrival{Kind: workload.ArrivalPoisson, RateIOPS: 40000}
	measure := synth(trace.RandRead, 300, 53)
	measure.Record = true
	replayRec := workload.Spec{TracePath: mixedPath, Record: true}

	tenants, err := nvme.ParseTenants(fmt.Sprintf("agg:200xSW;300xRW,record|log:replay:%s", seqPath),
		workload.Spec{BlockSize: 4096, SpanBytes: 1 << 22, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	tenants.Policy = nvme.PolicyWRR
	reqs, err := synth(trace.RandWrite, 300, 61).Generate()
	if err != nil {
		t.Fatal(err)
	}

	run := func(p *Platform, w workload.Spec) (Result, error) { return p.Run(w, ModeFull) }
	cases := []struct {
		name string
		run  func(p *Platform) (Result, error)
	}{
		{"synth-open-zipf", func(p *Platform) (Result, error) { return run(p, open) }},
		{"chain-one-phase", func(p *Platform) (Result, error) {
			return run(p, workload.Spec{Phases: []workload.Spec{synth(trace.RandWrite, 300, 67)}})
		}},
		{"chain-precondition-measure", func(p *Platform) (Result, error) {
			return run(p, workload.Spec{Phases: []workload.Spec{synth(trace.RandWrite, 400, 71), measure}})
		}},
		{"replay-bare", func(p *Platform) (Result, error) {
			return run(p, workload.Spec{TracePath: mixedPath})
		}},
		{"chain-replay", func(p *Platform) (Result, error) {
			return run(p, workload.Spec{Phases: []workload.Spec{synth(trace.SeqWrite, 200, 73), replayRec}})
		}},
		{"requests", func(p *Platform) (Result, error) { return p.RunRequests(reqs) }},
		{"tenants-phased-replay", func(p *Platform) (Result, error) { return p.RunTenants(tenants, ModeFull) }},
	}
	golden := readDigests(t, streamShapesGolden)
	digests := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Build(config.Default())
			if err != nil {
				t.Fatal(err)
			}
			tr := p.EnableTracing(evtrace.Options{Events: true})
			res, err := tc.run(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("run completed nothing")
			}
			var buf bytes.Buffer
			if err := tr.WritePerfetto(&buf); err != nil {
				t.Fatal(err)
			}
			scrubWall(&res)
			scrubLabels(&res)
			checkGolden(t, golden, digests, tc.name, res, buf.Bytes())
		})
	}
	if *updateGolden {
		writeDigests(t, streamShapesGolden, digests)
	}
}
