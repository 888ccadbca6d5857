// Noisy-neighbor isolation with a recorded production trace: instead of
// synthetic writers, the aggressor tenant replays an MSR Cambridge
// block-trace CSV (the format auto-detected by the trace importers) into
// its own namespace, while a latency-sensitive synthetic reader shares the
// drive through the NVMe-style multi-queue front end. Sweeping the
// arbitration policy shows the same QoS trade-off as the synthetic
// scenario — round robin lets the recorded write backlog inflate the
// reader's tail, weighted round robin buys the reader its share, strict
// priority isolates it hardest.
//
// The example synthesises a small MSR CSV volume so it is self-contained;
// point the replay phase at any real MSR/blktrace/canonical trace file to
// play recorded production traffic instead.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	ssdx "repro"
)

// writeMSRTrace materialises the aggressor volume: 2400 sequential 8 KB
// writes in MSR Cambridge CSV syntax
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime). The
// constant timestamp rebases every arrival to zero, so the replay becomes a
// closed-loop backlog — maximum pressure on the victim.
func writeMSRTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i := 0; i < 2400; i++ {
		fmt.Fprintf(f, "128166372003061629,src1,0,Write,%d,8192,412\n", (i*8192)%(48<<20))
	}
	return f.Close()
}

func main() {
	trace := filepath.Join(os.TempDir(), "noisy_neighbor_aggressor.msr.csv")
	if err := writeMSRTrace(trace); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(trace)

	base := ssdx.Workload{BlockSize: 4096, SpanBytes: 1 << 26, Seed: 7}
	set, err := ssdx.ParseTenants(fmt.Sprintf(
		"victim@high*9#4:900xRR | aggressor@low:replay:%s,span=48m", trace), base)
	if err != nil {
		log.Fatal(err)
	}

	cfg := ssdx.DefaultConfig()
	cfg.QueueDepth = 8          // tight shared window: arbitration decides who enters
	cfg.CachePolicy = "nocache" // writes hold their slot for the full flash program

	fmt.Printf("%-8s %14s %14s %14s %14s %10s\n",
		"policy", "victim p99 us", "victim mean us", "victim MB/s", "aggressor MB/s", "fairness")
	pt := ssdx.Point{Config: cfg, Tenants: set.Tenants, Mode: ssdx.ModeFull}
	for _, arb := range []string{"rr", "wrr", "prio"} {
		pt.Policy, err = ssdx.ParseQoSPolicy(arb)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pt.Run(nil)
		if err != nil {
			log.Fatal(err)
		}
		victim, agg := res.Tenants[0], res.Tenants[1]
		fmt.Printf("%-8s %14.1f %14.1f %14.1f %14.1f %10.3f\n",
			arb, victim.AllLat.P99US, victim.AllLat.MeanUS, victim.MBps, agg.MBps, res.Fairness)
	}
	fmt.Println("\nthe recorded trace behaves exactly like the synthetic writers: rr serves the")
	fmt.Println("victim far below its weight and its tail balloons behind the replayed write")
	fmt.Println("backlog; wrr restores the weighted share and prio cuts the p99 hardest.")
}
