// Design-space exploration (the paper's §IV-A story in miniature): sweep a
// few Table II design points under a SATA II host with caching, and find the
// cheapest configuration that saturates the host interface — the "optimal
// design point" the tool exists to identify.
package main

import (
	"fmt"
	"log"

	ssdx "repro"
)

func main() {
	w, err := ssdx.NewWorkload("SW", 4096, 1<<30, 12000)
	if err != nil {
		log.Fatal(err)
	}

	// Host envelope: the best the interface alone can do.
	base, _ := ssdx.Preset("t2:C1")
	ideal, err := ssdx.Point{Config: base, Workload: w, Mode: ssdx.ModeHostIdeal}.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SATA II envelope: %.1f MB/s\n\n", ideal.MBps)
	fmt.Printf("%-5s %-30s %10s %10s %10s\n", "cfg", "topology", "drain", "SSD", "dies")

	type point struct {
		name string
		mbps float64
		cost int // channels + DDR buffers: the paper's resource metric
	}
	var sat []point
	for _, name := range []string{"t2:C1", "t2:C4", "t2:C6", "t2:C8", "t2:C9"} {
		cfg, err := ssdx.Preset(name)
		if err != nil {
			log.Fatal(err)
		}
		drain, err := ssdx.Point{Config: cfg, Workload: w, Mode: ssdx.ModeDDRFlash}.Run(nil)
		if err != nil {
			log.Fatal(err)
		}
		full, err := ssdx.Point{Config: cfg, Workload: w, Mode: ssdx.ModeFull}.Run(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %-30s %10.1f %10.1f %10d\n",
			cfg.Name, cfg.Describe(), drain.MBps, full.MBps, cfg.TotalDies())
		if full.MBps > 0.95*ideal.MBps {
			sat = append(sat, point{cfg.Name, full.MBps, cfg.Channels + cfg.DDRBuffers})
		}
	}

	if len(sat) == 0 {
		fmt.Println("\nno configuration saturates the host interface")
		return
	}
	best := sat[0]
	for _, p := range sat[1:] {
		if p.cost < best.cost {
			best = p
		}
	}
	fmt.Printf("\noptimal design point: %s — saturates the host at the lowest channel/buffer cost (%d)\n",
		best.name, best.cost)
}
