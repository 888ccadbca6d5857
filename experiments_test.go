package ssdx

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestTableIIContents pins the ten Table II design points to the paper's
// published topologies (DDR-buf; CHN; WAY; DIE).
func TestTableIIContents(t *testing.T) {
	want := []struct {
		name               string
		buf, chn, way, die int
	}{
		{"C1", 4, 4, 4, 2},
		{"C2", 8, 8, 4, 2},
		{"C3", 8, 8, 8, 2},
		{"C4", 8, 8, 8, 4},
		{"C5", 8, 8, 8, 8},
		{"C6", 16, 16, 8, 4},
		{"C7", 16, 16, 4, 2},
		{"C8", 32, 32, 4, 2},
		{"C9", 32, 32, 1, 1},
		{"C10", 32, 32, 8, 4},
	}
	got := TableII()
	if len(got) != len(want) {
		t.Fatalf("TableII has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		c := got[i]
		if c.Name != w.name || c.DDRBuffers != w.buf || c.Channels != w.chn ||
			c.Ways != w.way || c.DiesPerWay != w.die {
			t.Errorf("TableII[%d] = %s %s, want %s %d-DDR-buf;%d-CHN;%d-WAY;%d-DIE",
				i, c.Name, c.Describe(), w.name, w.buf, w.chn, w.way, w.die)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("TableII[%d] invalid: %v", i, err)
		}
	}
}

func TestWriteFig2TableGolden(t *testing.T) {
	rows := []Fig2Row{
		{Pattern: trace.SeqWrite, RefMBps: 165, SimMBps: 158.2, ErrPct: -4.1},
		{Pattern: trace.RandRead, RefMBps: 140, SimMBps: 147.5, ErrPct: 5.4},
	}
	var b strings.Builder
	WriteFig2Table(&b, rows)
	want := "" +
		"pat      ref MB/s     sim MB/s    err %\n" +
		"SW          165.0        158.2     -4.1\n" +
		"RR          140.0        147.5     +5.4\n"
	if b.String() != want {
		t.Errorf("Fig2 table:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteDSETableGolden(t *testing.T) {
	rows := []DSERow{
		{
			Name: "C1", Topology: "4-DDR-buf;4-CHN;4-WAY;2-DIE",
			DDRFlash: 410.2, SSDCache: 251.6, SSDNoCache: 88.1,
			HostIdeal: 262.1, HostDDR: 258.4,
		},
	}
	var b strings.Builder
	WriteDSEShapeTable(&b, "sata2", "sequential write 4KB", rows)
	want := "" +
		"# sequential write 4KB, host=sata2 (MB/s)\n" +
		"cfg   topology                        DDR+FLASH  SSD cache SSD no-cache  HOST ideal   HOST+DDR\n" +
		"C1    4-DDR-buf;4-CHN;4-WAY;2-DIE         410.2      251.6         88.1       262.1      258.4\n"
	if b.String() != want {
		t.Errorf("DSE table:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteWearTableGolden(t *testing.T) {
	rows := []WearRow{
		{Wear: 0, FixedRead: 210.5, FixedWrite: 150.2, AdaptiveRead: 231.8, AdaptiveWrite: 149.9},
		{Wear: 1, FixedRead: 208.9, FixedWrite: 148.6, AdaptiveRead: 207.3, AdaptiveWrite: 147.2},
	}
	var b strings.Builder
	WriteWearTable(&b, rows)
	want := "" +
		"wear        fixed R      fixed W     adaptive R     adaptive W\n" +
		"0.00          210.5        150.2          231.8          149.9\n" +
		"1.00          208.9        148.6          207.3          147.2\n"
	if b.String() != want {
		t.Errorf("wear table:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteSpeedTableGolden(t *testing.T) {
	rows := []SpeedRow{
		{Name: "C1", Topology: "1-DDR-buf;1-CHN;1-WAY;1-DIE", Dies: 1, KCPS: 152.4, Events: 123456},
		{Name: "C2", Topology: "1-DDR-buf;2-CHN;1-WAY;2-DIE", Dies: 4, KCPS: 101.9, Events: 654321},
	}
	var b strings.Builder
	WriteSpeedTable(&b, rows)
	want := "" +
		"cfg      topology                             dies   KCPS (sim)  KCPS(paper)     events\n" +
		"C1       1-DDR-buf;1-CHN;1-WAY;1-DIE             1          152        144.1     123456\n" +
		"C2       1-DDR-buf;2-CHN;1-WAY;2-DIE             4          102        108.4     654321\n"
	if b.String() != want {
		t.Errorf("speed table:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestHarnessUsesSharedCache proves the experiment harness is incremental:
// regenerating the same figure reuses the process-wide result cache.
func TestHarnessUsesSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := WearoutSweep(2, 0.01); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := expCache.Stats()
	if _, err := WearoutSweep(2, 0.01); err != nil {
		t.Fatal(err)
	}
	hits, missesAfter := expCache.Stats()
	if missesAfter != missesBefore {
		t.Errorf("re-sweep ran %d new simulations", missesAfter-missesBefore)
	}
	if hits == 0 {
		t.Error("re-sweep recorded no cache hits")
	}
}
