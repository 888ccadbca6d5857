package config

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden files")

// presetNames names Default, Vertex and every Table II and Table III preset.
func presetNames() []string {
	names := []string{"default", "vertex"}
	for i := range TableII() {
		names = append(names, fmt.Sprintf("t2:C%d", i+1))
	}
	for i := range TableIII() {
		names = append(names, fmt.Sprintf("t3:C%d", i+1))
	}
	return names
}

// TestKeysSorted: the key table is sorted and free of duplicates, since
// Render writes it in table order and set takes the first match.
func TestKeysSorted(t *testing.T) {
	for i := 1; i < len(keys); i++ {
		if keys[i-1].name >= keys[i].name {
			t.Errorf("key %q listed before %q", keys[i-1].name, keys[i].name)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	want := []string{
		"4-DDR-buf;4-CHN;4-WAY;2-DIE",
		"8-DDR-buf;8-CHN;4-WAY;2-DIE",
		"8-DDR-buf;8-CHN;8-WAY;2-DIE",
		"8-DDR-buf;8-CHN;8-WAY;4-DIE",
		"8-DDR-buf;8-CHN;8-WAY;8-DIE",
		"16-DDR-buf;16-CHN;8-WAY;4-DIE",
		"16-DDR-buf;16-CHN;4-WAY;2-DIE",
		"32-DDR-buf;32-CHN;4-WAY;2-DIE",
		"32-DDR-buf;32-CHN;1-WAY;1-DIE",
		"32-DDR-buf;32-CHN;8-WAY;4-DIE",
	}
	got := TableII()
	if len(got) != 10 {
		t.Fatalf("Table II has %d entries", len(got))
	}
	for i, p := range got {
		if p.Describe() != want[i] {
			t.Errorf("C%d: %s want %s", i+1, p.Describe(), want[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("C%d invalid: %v", i+1, err)
		}
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	want := []string{
		"1-DDR-buf;1-CHN;1-WAY;1-DIE",
		"1-DDR-buf;2-CHN;1-WAY;2-DIE",
		"1-DDR-buf;4-CHN;1-WAY;2-DIE",
		"1-DDR-buf;4-CHN;2-WAY;4-DIE",
		"4-DDR-buf;4-CHN;2-WAY;4-DIE",
		"4-DDR-buf;4-CHN;2-WAY;8-DIE",
		"4-DDR-buf;4-CHN;2-WAY;16-DIE",
		"32-DDR-buf;32-CHN;16-WAY;16-DIE",
	}
	got := TableIII()
	if len(got) != 8 {
		t.Fatalf("Table III has %d entries", len(got))
	}
	for i, p := range got {
		if p.Describe() != want[i] {
			t.Errorf("C%d: %s want %s", i+1, p.Describe(), want[i])
		}
	}
}

func TestVertexPreset(t *testing.T) {
	v := Vertex()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.TotalDies() != 32 {
		t.Fatalf("vertex dies %d", v.TotalDies())
	}
	if v.NANDProfile != "vertex" || !v.MultiPlane || v.ECCScheme != "fixed" {
		t.Fatalf("vertex preset wrong: %+v", v)
	}
	// Paper: Table III C4 is the topology adopted in [6] (the Vertex).
	if v.Describe() != TableIII()[3].Describe() {
		t.Fatalf("vertex topology %s != Table III C4 %s", v.Describe(), TableIII()[3].Describe())
	}
}

func TestPreset(t *testing.T) {
	p, err := Preset("t2:C6")
	if err != nil || p.Channels != 16 {
		t.Fatalf("t2:C6 -> %+v, %v", p, err)
	}
	p, err = Preset("t3:c8")
	if err != nil || p.TotalDies() != 32*16*16 {
		t.Fatalf("t3:c8 -> %+v, %v", p, err)
	}
	if _, err := Preset("t2:C99"); err == nil {
		t.Fatal("bogus preset accepted")
	}
	if _, err := Preset("zzz"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestParse(t *testing.T) {
	src := `
# test config
preset = vertex
name = my-drive
channels = 8
host_if = pcie-g2x8
cache_policy = nocache
ecc_scheme = adaptive
ecc_latency = bit-serial
wear = 0.5
seed = 99
`
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "my-drive" || p.Channels != 8 || p.HostIF != "pcie-g2x8" {
		t.Fatalf("parsed %+v", p)
	}
	// Preset fields not overridden must persist.
	if p.NANDProfile != "vertex" || !p.MultiPlane {
		t.Fatalf("preset base lost: %+v", p)
	}
	if p.Wear != 0.5 || p.Seed != 99 || p.ECCScheme != "adaptive" {
		t.Fatalf("overrides lost: %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"channels 4",     // missing =
		"bogus_key = 1",  // unknown key
		"channels = abc", // bad int
		"wear = 9",       // out of range (validation)
		"cache_policy = maybe",
		"gang_mode = shared-controll",
	}
	p := Default()
	for _, k := range keys {
		if _, ok := k.field(&p).(*float64); !ok {
			continue
		}
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			bad = append(bad, "preset = vertex\n"+k.name+" = "+v)
		}
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("config %q accepted", src)
		}
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	orig := Vertex()
	orig.Wear = 0.25
	orig.QueueDepth = 16
	// Diverge from Default() on fields Parse would otherwise inherit, so a
	// key silently dropped by Render cannot round-trip by accident.
	orig.CPUModel = "firmware"
	orig.FTLMode = "mapper"
	orig.GangMode = "shared-control"
	var buf bytes.Buffer
	if err := orig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, orig)
	}
}

func TestValidationCatches(t *testing.T) {
	cases := []func(*Platform){
		func(p *Platform) { p.Channels = 0 },
		func(p *Platform) { p.NANDProfile = "tlc" },
		func(p *Platform) { p.CachePolicy = "writeback" },
		func(p *Platform) { p.ECCScheme = "ldpc" },
		func(p *Platform) { p.ECCScheme = "fixed"; p.ECCT = 0 },
		func(p *Platform) { p.ECCScheme = "fixed"; p.ECCEngines = 0 },
		func(p *Platform) { p.CompressPlacement = "inline" },
		func(p *Platform) { p.SpareFactor = 0 },
		func(p *Platform) { p.WAFOverride = 0.5 },
		func(p *Platform) { p.CPUCores = 0 },
		func(p *Platform) { p.Wear = 2 },
		func(p *Platform) { p.QueueDepth = -1 },
		func(p *Platform) { p.ECCLatency = "quantum" },
		func(p *Platform) { p.GangMode = "shared-controll" },
		func(p *Platform) { p.HostIF = "bogus" },
		func(p *Platform) { p.HostIF = "pcie-g9x8" },
		func(p *Platform) { p.HostIF = "pcie-g2x3" },
		func(p *Platform) { p.CompressPlacement = "channel"; p.CompressRatio = 1.5 },
		func(p *Platform) { p.CompressPlacement = "host"; p.CompressMBps = 0 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

const renderGolden = "testdata/render.golden"

// TestRenderGolden pins Render's bytes for every preset: dse.Point.Key and
// the journal manifests hash them, so one moved byte moves every cache key.
func TestRenderGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range presetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "## preset %s\n", name)
		if err := p.Render(&got); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(renderGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(renderGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Render output drifted from %s:\n got: %s\nwant: %s", renderGolden, got.Bytes(), want)
	}
}

// FuzzConfig: Parse never panics, and every config it accepts renders back
// to a file that parses to the same Platform.
func FuzzConfig(f *testing.F) {
	for _, name := range presetNames() {
		p, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Render(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, key := range []string{"spare_factor", "wear", "waf_override"} {
		f.Add("preset = vertex\n" + key + " = NaN\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.Render(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("rendered config does not parse: %v\n%s", err, buf.String())
		}
		if back != p {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", back, p)
		}
	})
}
