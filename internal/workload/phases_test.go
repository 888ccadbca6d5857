package workload

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

var phaseBase = Spec{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}

func TestParsePhases(t *testing.T) {
	w, err := ParsePhases("4000xSW;8000xRR,skew=zipf:0.9,arrival=poisson:20000,record", phaseBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 2 {
		t.Fatalf("got %d phases", len(w.Phases))
	}
	pre, meas := w.Phases[0], w.Phases[1]
	if pre.Pattern != trace.SeqWrite || pre.Requests != 4000 || pre.Record {
		t.Errorf("precondition phase: %+v", pre)
	}
	if pre.BlockSize != 4096 || pre.SpanBytes != 1<<26 || pre.Seed != 7 {
		t.Errorf("base defaults not applied: %+v", pre)
	}
	if meas.Pattern != trace.RandRead || !meas.Record {
		t.Errorf("measure phase: %+v", meas)
	}
	if meas.Skew.Kind != SkewZipf || meas.Skew.Theta != 0.9 {
		t.Errorf("measure skew: %+v", meas.Skew)
	}
	if meas.Arrival.Kind != ArrivalPoisson || meas.Arrival.RateIOPS != 20000 {
		t.Errorf("measure arrival: %+v", meas.Arrival)
	}
}

func TestParsePhasesOptionsAndSuffixes(t *testing.T) {
	w, err := ParsePhases("10xSR,block=8k,span=1g,seed=42,mix=0.25", phaseBase)
	if err != nil {
		t.Fatal(err)
	}
	ph := w.Phases[0]
	if ph.BlockSize != 8<<10 || ph.SpanBytes != 1<<30 || ph.Seed != 42 || ph.WriteFrac != 0.25 {
		t.Errorf("options not applied: %+v", ph)
	}
}

func TestParsePhasesErrors(t *testing.T) {
	cases := []string{
		"",                           // empty
		";",                          // empty phases
		"SW",                         // no count
		"x4SW",                       // malformed head
		"10x",                        // no pattern
		"10xZZ",                      // unknown pattern
		"tenxSW",                     // non-numeric count
		"10xSW,bogus=1",              // unknown option
		"10xSW,record=yes",           // record takes no value
		"10xSW,block=banana",         // bad size
		"10xSW,block=0",              // validation: non-positive block
		"10xSW,mix=lots",             // bad float
		"10xSW,mix=1.5",              // validation: mix out of range
		"10xSW,skew=zipf:2",          // skew validation
		"10xSW,arrival=poisson",      // arrival syntax
		"10xSW,seed=-1",              // bad seed
		"0xSW",                       // validation: zero requests
		"10xSW,span=1k",              // validation: span < block
		"10xSW,block=9999999999999g", // size overflow
		"replay:x,noreads",           // unknown replay option
	}
	for _, in := range cases {
		if _, err := ParsePhases(in, phaseBase); err == nil {
			t.Errorf("ParsePhases(%q) accepted", in)
		}
	}
}

// TestFormatPhasesRoundTrip: rendering a parsed scenario and re-parsing it
// yields the identical spec (FormatPhases output is self-contained, so the
// base defaults cannot influence the round trip).
func TestFormatPhasesRoundTrip(t *testing.T) {
	inputs := []string{
		"4000xSW",
		"100xSR,block=8k,mix=0.5",
		"4000xSW;8000xRR,skew=zipf:0.9,record",
		"10xRW,arrival=onoff:5000:2:8,seed=9;20xSR,skew=hotspot:0.2:0.8,record",
	}
	for _, in := range inputs {
		w, err := ParsePhases(in, phaseBase)
		if err != nil {
			t.Fatalf("ParsePhases(%q): %v", in, err)
		}
		out := FormatPhases(w)
		w2, err := ParsePhases(out, Spec{})
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", out, in, err)
		}
		if w.Canonical() != w2.Canonical() {
			t.Errorf("round trip of %q changed the spec:\n%s\nvs\n%s", in, w.Canonical(), w2.Canonical())
		}
	}
}

// TestFormatPhasesWrapsBareSpec: a non-phased spec renders as its single
// phase.
func TestFormatPhasesWrapsBareSpec(t *testing.T) {
	s := Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 5, Seed: 3}
	out := FormatPhases(s)
	if !strings.HasPrefix(out, "5xRW") {
		t.Errorf("FormatPhases = %q", out)
	}
	if _, err := ParsePhases(out, Spec{}); err != nil {
		t.Errorf("bare-spec rendering does not re-parse: %v", err)
	}
}

// TestSpecValidateErrors sweeps the Validate error paths, including the
// phase-specific rules.
func TestSpecValidateErrors(t *testing.T) {
	ok := Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 20, Requests: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	mut := func(f func(*Spec)) Spec {
		s := ok
		f(&s)
		return s
	}
	cases := map[string]Spec{
		"zero-block":       mut(func(s *Spec) { s.BlockSize = 0 }),
		"unaligned-block":  mut(func(s *Spec) { s.BlockSize = 1000 }),
		"span-lt-block":    mut(func(s *Spec) { s.SpanBytes = 100 }),
		"zero-requests":    mut(func(s *Spec) { s.Requests = 0 }),
		"neg-requests":     mut(func(s *Spec) { s.Requests = -5 }),
		"mix-low":          mut(func(s *Spec) { s.WriteFrac = -0.1 }),
		"mix-high":         mut(func(s *Spec) { s.WriteFrac = 1.1 }),
		"bad-zipf":         mut(func(s *Spec) { s.Skew = Skew{Kind: SkewZipf, Theta: 1.5} }),
		"bad-hotspot":      mut(func(s *Spec) { s.Skew = Skew{Kind: SkewHotspot, HotFrac: 0, HotProb: 2} }),
		"bad-skew-kind":    mut(func(s *Spec) { s.Skew = Skew{Kind: SkewKind(99)} }),
		"bad-poisson":      mut(func(s *Spec) { s.Arrival = Arrival{Kind: ArrivalPoisson, RateIOPS: 0} }),
		"bad-onoff":        mut(func(s *Spec) { s.Arrival = Arrival{Kind: ArrivalOnOff, RateIOPS: 100, OnMS: 0} }),
		"bad-arrival":      mut(func(s *Spec) { s.Arrival = Arrival{Kind: ArrivalKind(99)} }),
		"trace-neg-span":   {TracePath: "x", SpanBytes: -1},
		"trace-and-phases": {TracePath: "x", Phases: []Spec{ok}},
		"nested-phases":    {Phases: []Spec{{Phases: []Spec{ok}}}},
		"invalid-phase":    {Phases: []Spec{mut(func(s *Spec) { s.Requests = 0 })}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, s)
		}
	}
	// Record flags are structural, never validation errors.
	phased := Spec{Phases: []Spec{mut(func(s *Spec) { s.Record = true }), ok}}
	if err := phased.Validate(); err != nil {
		t.Errorf("record-flagged phases rejected: %v", err)
	}
}

// FuzzParsePhases mirrors the trace-parser fuzz test for the phase syntax:
// the parser must never panic, anything it accepts must validate, and the
// FormatPhases rendering of an accepted spec must re-parse to the identical
// canonical form.
func FuzzParsePhases(f *testing.F) {
	f.Add("4000xSW")
	f.Add("4000xSW;8000xRR,skew=zipf:0.9,record")
	f.Add("10xRW,arrival=onoff:5000:2:8,seed=9")
	f.Add("1xsw,block=8k,span=1m,mix=0.5")
	f.Add("10xSW,record;")
	f.Add("0xSW")
	f.Add("10xSW,,record")
	f.Add("10xSW,span=1K;10xSR")
	f.Add("99999999999999999999xSW")
	f.Add("1xSW,seed=18446744073709551615")
	f.Fuzz(func(t *testing.T, in string) {
		w, err := ParsePhases(in, phaseBase)
		if err != nil {
			return // malformed input may fail, never panic
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("accepted spec does not validate: %v\ninput: %q", err, in)
		}
		out := FormatPhases(w)
		w2, err := ParsePhases(out, Spec{})
		if err != nil {
			t.Fatalf("rendering does not re-parse: %v\ninput: %q\nrendered: %q", err, in, out)
		}
		if w.Canonical() != w2.Canonical() {
			t.Fatalf("round trip changed the spec\ninput: %q\nrendered: %q\nbefore:\n%s\nafter:\n%s",
				in, out, w.Canonical(), w2.Canonical())
		}
	})
}

// FuzzStream checks the compiled phase chain against the spec it came from,
// for any synthetic scenario the phase syntax accepts: the chain plays every
// phase's requests in order, each inside its phase's span and block size,
// reports the phase and record flag of every request it returns, keeps
// open-loop arrivals monotonic across phase boundaries, classifies what it
// played, matches the spec's request and byte totals, and replays
// identically when compiled again. Each phase compiled on its
// own is a plain one-phase stream that records everything and classifies
// nothing.
func FuzzStream(f *testing.F) {
	f.Add("40xSW")
	f.Add("40xSW;80xRR,skew=zipf:0.9,record")
	f.Add("10xRW,arrival=onoff:5000:2:8,seed=9;5xSR,record;7xRW,mix=0.5,arrival=poisson:9000")
	f.Add("1xsw,block=8k,span=1m,mix=0.5")
	f.Add("20xRR,skew=hotspot:0.1:0.9,arrival=poisson:100000;3xSW;4xRW,record")
	f.Fuzz(func(t *testing.T, in string) {
		w, err := ParsePhases(in, phaseBase)
		if err != nil || w.HasReplay() || w.TotalRequests() > 2000 {
			return // only bounded synthetic scenarios: no files, no huge runs
		}
		for _, ph := range w.Phases {
			if ph.Skew.Kind == SkewZipf && ph.SpanBytes/ph.BlockSize > 1<<16 {
				return // zipf set-up is linear in the block count
			}
		}
		st, err := w.Stream()
		if err != nil {
			t.Fatalf("accepted spec does not compile: %v\ninput: %q", err, in)
		}
		if !st.Phased() || st.Classification() == nil {
			t.Fatalf("a declared chain must report phases and classify itself\ninput: %q", in)
		}
		anyRec := false
		for _, ph := range w.Phases {
			anyRec = anyRec || ph.Record
		}
		var reqs []trace.Request
		counts := make([]int, len(w.Phases))
		lastPhase, lastArrival := 0, 0.0
		for req, ok := st.Next(); ok; req, ok = st.Next() {
			p := st.Phase()
			if p < lastPhase || p >= len(w.Phases) {
				t.Fatalf("request %d in phase %d after phase %d of %d\ninput: %q", len(reqs), p, lastPhase, len(w.Phases), in)
			}
			ph := w.Phases[p]
			if st.Recording() != (ph.Record || !anyRec) {
				t.Fatalf("request %d (phase %d) recording=%v\ninput: %q", len(reqs), p, st.Recording(), in)
			}
			if req.Bytes != ph.BlockSize || req.EndLBA()*trace.SectorSize > ph.SpanBytes {
				t.Fatalf("request %+v outside phase %d's block %d / span %d\ninput: %q", req, p, ph.BlockSize, ph.SpanBytes, in)
			}
			if req.ArrivalUS > 0 {
				if req.ArrivalUS < lastArrival {
					t.Fatalf("arrival %v before %v at request %d\ninput: %q", req.ArrivalUS, lastArrival, len(reqs), in)
				}
				lastArrival = req.ArrivalUS
			}
			lastPhase = p
			counts[p]++
			reqs = append(reqs, req)
		}
		for p, ph := range w.Phases {
			if counts[p] != ph.Requests {
				t.Fatalf("phase %d played %d requests, want %d\ninput: %q", p, counts[p], ph.Requests, in)
			}
		}
		info := st.Classification().Info()
		if info.Requests != len(reqs) || len(reqs) != w.TotalRequests() || info.TotalBytes != w.TotalBytes() {
			t.Fatalf("played %d requests (%d classified, %d bytes); spec totals %d requests, %d bytes\ninput: %q",
				len(reqs), info.Requests, info.TotalBytes, w.TotalRequests(), w.TotalBytes(), in)
		}
		again, err := w.Stream()
		if err != nil {
			t.Fatalf("spec does not compile twice: %v\ninput: %q", err, in)
		}
		for i, want := range reqs {
			if got, ok := again.Next(); !ok || got != want {
				t.Fatalf("second compile request %d = %+v (ok=%v), want %+v\ninput: %q", i, got, ok, want, in)
			}
		}
		if _, ok := again.Next(); ok {
			t.Fatalf("second compile plays more than %d requests\ninput: %q", len(reqs), in)
		}
		for p, ph := range w.Phases {
			plain, err := ph.Stream()
			if err != nil {
				t.Fatalf("phase %d does not compile alone: %v\ninput: %q", p, err, in)
			}
			if plain.Phased() || plain.Classification() != nil {
				t.Fatalf("phase %d alone declares phases or classifies itself\ninput: %q", p, in)
			}
			for _, ok := plain.Next(); ok; _, ok = plain.Next() {
				if !plain.Recording() || plain.Phase() != 0 {
					t.Fatalf("phase %d alone: recording=%v phase=%d\ninput: %q", p, plain.Recording(), plain.Phase(), in)
				}
			}
		}
	})
}
