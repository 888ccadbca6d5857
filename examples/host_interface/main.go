// Host-interface comparison (the paper's Fig. 3 vs Fig. 4 mechanism): with a
// no-cache buffer policy, SATA's 32-command NCQ window caps throughput no
// matter how parallel the flash back-end is; NVMe's deep queues unveil the
// internal parallelism.
package main

import (
	"fmt"
	"log"

	ssdx "repro"
)

func main() {
	w, err := ssdx.NewWorkload("SW", 4096, 1<<30, 8000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s\n", "configuration", "SATA II", "PCIe+NVMe")
	for _, name := range []string{"t2:C1", "t2:C6", "t2:C10"} {
		var vals []float64
		for _, host := range []string{"sata2", "pcie-g2x8"} {
			cfg, err := ssdx.Preset(name)
			if err != nil {
				log.Fatal(err)
			}
			cfg.HostIF = host
			cfg.CachePolicy = "nocache" // expose the queue-depth wall
			res, err := ssdx.Point{Config: cfg, Workload: w, Mode: ssdx.ModeFull}.Run(nil)
			if err != nil {
				log.Fatal(err)
			}
			vals = append(vals, res.MBps)
		}
		cfg, _ := ssdx.Preset(name)
		fmt.Printf("%-22s %10.1f %12.1f  (%d dies)\n",
			name+" "+cfg.Describe(), vals[0], vals[1], cfg.TotalDies())
	}
	fmt.Println("\nno-cache SSDs flatten at ~32 x 4KB / tPROG on SATA (NCQ wall);")
	fmt.Println("NVMe's 64K-entry queues let the same hardware scale with its dies.")
}
