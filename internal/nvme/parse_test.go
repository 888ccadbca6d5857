package nvme

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func baseSpec() workload.Spec {
	return workload.Spec{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
}

func TestParseTenants(t *testing.T) {
	set, err := ParseTenants("victim@high:6000xRR | noisy*4#8:20000xSW,arrival=poisson:50000", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Tenants) != 2 {
		t.Fatalf("got %d tenants", len(set.Tenants))
	}
	v, n := set.Tenants[0], set.Tenants[1]
	if v.Name != "victim" || v.Class != ClassHigh || v.NormWeight() != 1 || v.Depth != 0 {
		t.Errorf("victim header mis-parsed: %+v", v)
	}
	if v.Workload.Pattern != trace.RandRead || v.Workload.Requests != 6000 {
		t.Errorf("victim workload mis-parsed: %+v", v.Workload)
	}
	if v.Workload.BlockSize != 4096 || v.Workload.SpanBytes != 1<<26 || v.Workload.Seed != 7 {
		t.Errorf("base defaults not applied: %+v", v.Workload)
	}
	if n.Name != "noisy" || n.NormWeight() != 4 || n.Depth != 8 || n.Class != ClassMedium {
		t.Errorf("noisy header mis-parsed: %+v", n)
	}
	if n.Workload.Arrival.Kind != workload.ArrivalPoisson || n.Workload.Arrival.RateIOPS != 50000 {
		t.Errorf("noisy arrival mis-parsed: %+v", n.Workload.Arrival)
	}
}

func TestParseTenantsPhased(t *testing.T) {
	set, err := ParseTenants("t:4000xSW;8000xRR,skew=zipf:0.9,record", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := set.Tenants[0].Workload
	if len(w.Phases) != 2 {
		t.Fatalf("want 2 phases, got %+v", w)
	}
	if !w.Phases[1].Record || w.Phases[1].Skew.Kind != workload.SkewZipf {
		t.Errorf("phase options lost: %+v", w.Phases[1])
	}
}

// TestParseTenantsReplay: the replay phase syntax reaches tenant workloads
// and round-trips through FormatTenants.
func TestParseTenantsReplay(t *testing.T) {
	set, err := ParseTenants("agg:replay:msr.csv,span=16m,seqwrites | victim@high:6000xRR", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	agg := set.Tenants[0]
	if agg.Workload.TracePath != "msr.csv" || !agg.Workload.ReplaySeqWrites {
		t.Errorf("replay tenant mis-parsed: %+v", agg.Workload)
	}
	if got := agg.NSBytes(); got != 16<<20 {
		t.Errorf("replay namespace = %d, want span=16m", got)
	}
	formatted := FormatTenants(set)
	if !strings.Contains(formatted, "replay:msr.csv") {
		t.Errorf("FormatTenants dropped the replay phase: %q", formatted)
	}
	set2, err := ParseTenants(formatted, baseSpec())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", formatted, err)
	}
	if set.Canonical() != set2.Canonical() {
		t.Errorf("replay round trip drifted:\nfirst:  %s\nsecond: %s", set.Canonical(), set2.Canonical())
	}
	// A replay phase may ride a phase chain behind synthetic preconditioning.
	set, err = ParseTenants("agg:1000xSW;replay:msr.csv,span=8m,record", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := set.Tenants[0].Workload
	if len(w.Phases) != 2 || w.Phases[1].TracePath != "msr.csv" || !w.Phases[1].Record {
		t.Errorf("phased replay mis-parsed: %+v", w)
	}
}

func TestParseTenantsErrors(t *testing.T) {
	bad := []string{
		"",                         // empty
		"noname",                   // no colon
		":4000xSW",                 // empty name
		"a:4000xSW|",               // trailing empty tenant
		"a@turbo:4000xSW",          // unknown class
		"a*0:4000xSW",              // weight < 1
		"a*x:4000xSW",              // non-numeric weight
		"a#0:4000xSW",              // depth < 1
		"a:4000xZZ",                // unknown pattern
		"a:4000xSW|a:4000xSW",      // duplicate name
		"a:0xSW",                   // zero requests
		"a:4000xSW,arrival=warp:1", // bad arrival
	}
	for _, s := range bad {
		if _, err := ParseTenants(s, baseSpec()); err == nil {
			t.Errorf("ParseTenants(%q) accepted invalid input", s)
		}
	}
}

// TestFormatTenantsRoundTrip proves the DSL round-trips: format a parsed
// set and re-parse it into an identical canonical form.
func TestFormatTenantsRoundTrip(t *testing.T) {
	specs := []string{
		"victim@high:6000xRR",
		"victim@urgent*2:4000xSW;6000xRR,record | noisy*4#16:20000xSW,arrival=poisson:50000",
		"a:100xSW,mix=0.3,skew=hotspot:0.2:0.8 | b@low:200xRW,arrival=onoff:1000:5:5",
	}
	for _, s := range specs {
		set, err := ParseTenants(s, baseSpec())
		if err != nil {
			t.Fatalf("ParseTenants(%q): %v", s, err)
		}
		formatted := FormatTenants(set)
		set2, err := ParseTenants(formatted, baseSpec())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", formatted, err)
		}
		if set.Canonical() != set2.Canonical() {
			t.Errorf("round trip drifted for %q:\nfirst:  %s\nsecond: %s", s, set.Canonical(), set2.Canonical())
		}
	}
}

// FuzzParseTenants checks the parser never panics, and that every accepted
// input yields a valid set whose formatted form re-parses to the same
// canonical scenario.
func FuzzParseTenants(f *testing.F) {
	f.Add("victim@high:6000xRR | noisy*4:20000xSW,arrival=poisson:50000")
	f.Add("a:100xSW")
	f.Add("a@urgent*3#7:1xRW;2xRR,record")
	f.Add("x:1xSW,block=8k,span=1m,seed=3")
	f.Add("a:replay:t.trace,span=1m,seqwrites")
	f.Add("a:100xSW;replay:t.trace,span=2m,record")
	f.Add("||")
	f.Add("a:@:*:#")
	f.Add("a*99999999999999999999:1xSW")
	f.Fuzz(func(t *testing.T, s string) {
		base := baseSpec()
		set, err := ParseTenants(s, base)
		if err != nil {
			return
		}
		if verr := set.Validate(); verr != nil {
			t.Fatalf("ParseTenants(%q) accepted a set that fails Validate: %v", s, verr)
		}
		formatted := FormatTenants(set)
		set2, err := ParseTenants(formatted, base)
		if err != nil {
			t.Fatalf("formatted form %q of %q does not re-parse: %v", formatted, s, err)
		}
		if set.Canonical() != set2.Canonical() {
			t.Fatalf("round trip drifted for %q via %q", s, formatted)
		}
	})
}

func TestLayoutAndSpans(t *testing.T) {
	set, err := ParseTenants("a:100xSW,span=1m | b:100xRR,span=2m | c:100xSW,span=4m", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	bases := set.Layout()
	wantBases := []int64{0, (1 << 20) / trace.SectorSize, (3 << 20) / trace.SectorSize}
	for i, w := range wantBases {
		if bases[i] != w {
			t.Errorf("base[%d] = %d, want %d", i, bases[i], w)
		}
	}
	if end := bases[2]*trace.SectorSize + set.Tenants[2].NSBytes(); end != 7<<20 {
		t.Errorf("layout ends at %d, want %d", end, 7<<20)
	}
	if !set.RandomWrites() {
		t.Error("two writing tenants must classify as random at drive level")
	}
}

func TestCompileNamespaceOffsets(t *testing.T) {
	set, err := ParseTenants("a:10xSW,span=1m | b:10xSW,span=1m", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	q, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumQueues() != 2 || q.QueueName(1) != "b" {
		t.Fatalf("queue identity wrong: %d %q", q.NumQueues(), q.QueueName(1))
	}
	base := int64((1 << 20) / trace.SectorSize)
	for k := 0; k < 10; k++ {
		ra, ok := q.Next(0)
		if !ok {
			t.Fatal("queue a ended early")
		}
		rb, ok := q.Next(1)
		if !ok {
			t.Fatal("queue b ended early")
		}
		if ra.LBA < 0 || ra.LBA >= base {
			t.Fatalf("tenant a escaped its namespace: lba %d", ra.LBA)
		}
		if rb.LBA < base || rb.LBA >= 2*base {
			t.Fatalf("tenant b escaped its namespace: lba %d", rb.LBA)
		}
		// Identical specs: b's stream is a's shifted by the namespace base.
		if rb.LBA != ra.LBA+base {
			t.Fatalf("streams diverged: a=%d b=%d", ra.LBA, rb.LBA)
		}
	}
}

func TestPolicyAndClassParse(t *testing.T) {
	for _, p := range []Policy{PolicyRR, PolicyWRR, PolicyPrio} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("policy %v does not round-trip: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Error("ParsePolicy accepted unknown policy")
	}
	for c := ClassLow; c < numClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("class %v does not round-trip: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("turbo"); err == nil {
		t.Error("ParseClass accepted unknown class")
	}
}

// TestDescribeStrings pins the human labels the CSV exports and result
// tables build on.
func TestDescribeStrings(t *testing.T) {
	set, err := ParseTenants("victim@high:6000xRR | noisy*4:20000xSW", baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	set.Policy = PolicyPrio
	d := set.Describe()
	if !strings.HasPrefix(d, "prio[") || !strings.Contains(d, "victim@high") || !strings.Contains(d, "noisy*4") {
		t.Errorf("Describe = %q", d)
	}
}
