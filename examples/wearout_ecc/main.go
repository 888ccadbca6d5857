// Wear-out and ECC design choice (the paper's §IV-B): as NAND pages wear
// out, reliability decays and the ECC must correct more bits. A fixed
// worst-case BCH pays the full decode latency from day one; an adaptive BCH
// follows a static correction table indexed by P/E cycles and wins on reads
// until end of life.
package main

import (
	"fmt"
	"log"

	ssdx "repro"
)

func main() {
	read, err := ssdx.NewWorkload("SR", 4096, 1<<27, 5000)
	if err != nil {
		log.Fatal(err)
	}
	write, _ := ssdx.NewWorkload("SW", 4096, 1<<27, 5000)

	fmt.Println("throughput (MB/s) vs normalized rated endurance")
	fmt.Printf("%-6s %10s %10s %12s %12s\n", "wear", "fixed R", "fixed W", "adaptive R", "adaptive W")
	for _, wear := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		row := []float64{}
		for _, scheme := range []string{"fixed", "adaptive"} {
			cfg := ssdx.DefaultConfig() // the paper's 4-CHN/2-WAY/4-DIE platform
			cfg.ECCScheme = scheme
			cfg.ECCT = 40
			cfg.ECCEngines = 1
			cfg.ECCLatency = "bit-serial"
			cfg.Wear = wear
			r, err := ssdx.Point{Config: cfg, Workload: read, Mode: ssdx.ModeFull}.Run(nil)
			if err != nil {
				log.Fatal(err)
			}
			wres, err := ssdx.Point{Config: cfg, Workload: write, Mode: ssdx.ModeFull}.Run(nil)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, r.MBps, wres.MBps)
		}
		fmt.Printf("%-6.1f %10.1f %10.1f %12.1f %12.1f\n", wear, row[0], row[1], row[2], row[3])
	}
	fmt.Println("\nadaptive BCH reads faster until end of life, where the table reaches")
	fmt.Println("the worst-case strength and both designs converge (paper Fig. 5).")
}
