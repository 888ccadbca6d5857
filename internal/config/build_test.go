package config_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// TestGangModeValidateMatchesBuild: Validate accepts exactly the gang-mode
// names the platform builds, so a misspelt gang_mode fails at Parse and
// -dumpconfig instead of only at core.Build.
func TestGangModeValidateMatchesBuild(t *testing.T) {
	for _, name := range []string{
		"shared-bus", "bus", "", "shared-control", "control",
		"shared-controll", "Shared-Bus", " bus", "mesh",
	} {
		p := config.Default()
		p.GangMode = name
		verr := p.Validate()
		_, berr := core.Build(p)
		if (verr == nil) != (berr == nil) {
			t.Errorf("gang mode %q: Validate error %v, Build error %v", name, verr, berr)
		}
	}
}

// FuzzValidateBuilds: every config file Parse accepts builds a platform, so
// a design point that passes validation cannot fail later at core.Build.
// Platforms past the size limits below are skipped unbuilt, which keeps the
// fuzzer's memory bounded.
func FuzzValidateBuilds(f *testing.F) {
	for _, p := range append(append([]config.Platform{config.Default(), config.Vertex()},
		config.TableII()...), config.TableIII()...) {
		var buf bytes.Buffer
		if err := p.Render(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, src := range []string{
		"host_if=0",
		"host_if = pcie-g9x8",
		"compress_placement = channel\ncompress_ratio = 1.5",
		"compress_placement = host\ncompress_mbps = 0",
		"preset = vertex\necc_scheme = adaptive\necc_t = 128\nftl_mode = mapper",
		"cpu_model = firmware\ngang_mode = control\nparallel = true",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := config.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if p.Channels > 256 || p.Ways > 256 || p.DiesPerWay > 256 || p.TotalDies() > 256 ||
			p.DDRBuffers > 64 || p.CPUCores > 16 || p.AHBLayers > 64 || p.ECCEngines > 64 {
			t.Skip("platform too large to build in a fuzz iteration")
		}
		if _, err := core.Build(p); err != nil {
			t.Fatalf("Validate accepts a config Build rejects: %v\n%s", err, src)
		}
	})
}
