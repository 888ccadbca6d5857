// Quickstart: build the default SSDExplorer platform, run a sequential-write
// benchmark, and print the paper-style performance breakdown — the fastest
// way to see what the virtual platform measures.
package main

import (
	"fmt"
	"log"

	ssdx "repro"
)

func main() {
	cfg := ssdx.DefaultConfig() // 4 channels x 2 ways x 4 dies, SATA II

	w, err := ssdx.NewWorkload("SW", 4096, 1<<28, 8000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform: %s (%s), host %s, %s policy\n\n",
		cfg.Name, cfg.Describe(), cfg.HostIF, cfg.CachePolicy)

	// The paper's four breakdown columns for one design point.
	for _, m := range []ssdx.Mode{
		ssdx.ModeHostIdeal, ssdx.ModeHostDDR, ssdx.ModeDDRFlash, ssdx.ModeFull,
	} {
		res, err := ssdx.Point{Config: cfg, Workload: w, Mode: m}.Run(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.1f MB/s\n", res.Mode, res.MBps)
	}

	// A full-platform run exposes microarchitectural detail.
	res, err := ssdx.Point{Config: cfg, Workload: w, Mode: ssdx.ModeFull}.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull SSD: %.1f MB/s over %v simulated, AHB util %.2f, CPU util %.2f\n",
		res.MBps, res.SimTime, res.BusUtil, res.CPUUtil)
	fmt.Printf("host queue peak %d of 32 (NCQ), %d flash programs, %d events\n",
		res.HostQueuePeak, res.FlashWrites, res.Events)
}
