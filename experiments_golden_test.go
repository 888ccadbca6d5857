package ssdx

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the figure-harness golden files")

// goldenScale shrinks the harness workloads so the figure tables regenerate
// in seconds; the committed goldens pin the simulator's numbers at exactly
// this scale.
const goldenScale = 0.05

// goldenCompare renders one figure table and byte-compares it against its
// committed golden file (or rewrites the file under -update).
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestFigure -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the committed golden.\ngot:\n%s\nwant:\n%s\n(re-run with -update only if the change is intended)",
			name, got, string(want))
	}
}

// TestFigureTablesGolden regenerates the Fig. 3/4/5 harness tables at the
// golden scale and compares them byte-for-byte with the committed outputs,
// so a refactor can never silently shift the reproduced results. The
// simulator is deterministic, so any diff is a real behaviour change.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full Table II sweeps")
	}
	t.Run("fig3_sata2", func(t *testing.T) {
		rows, err := DesignSpaceExplorationShape("sata2", goldenScale, "sw")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteDSEShapeTable(&b, "sata2", "sequential write 4KB", rows)
		goldenCompare(t, "fig3_sata2.golden", b.String())
	})
	t.Run("fig4_pcie", func(t *testing.T) {
		rows, err := DesignSpaceExplorationShape("pcie-g2x8", goldenScale, "sw")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteDSEShapeTable(&b, "pcie-g2x8", "sequential write 4KB", rows)
		goldenCompare(t, "fig4_pcie-g2x8.golden", b.String())
	})
	t.Run("fig5_wearout", func(t *testing.T) {
		rows, err := WearoutSweep(3, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteWearTable(&b, rows)
		goldenCompare(t, "fig5_wearout.golden", b.String())
	})
}
