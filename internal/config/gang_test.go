package config_test

import (
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
