// Command simspeed reproduces the paper's Fig. 6: simulation speed in
// kilo-cycles per second over the eight Table III configurations. Absolute
// values depend on the host machine and kernel technology (this is a Go
// event-driven kernel, not SystemC); the reproduction target is the
// inverse scaling of speed with instantiated resources. The gated simulator
// benchmark, with repetitions and spread, is cmd/ssdxbench.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	ssdx "repro"
)

func main() {
	scale := flag.Float64("scale", 1, "workload scale in (0,1]")
	list := flag.Bool("list", false, "print the Table III configurations and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the measurement to this file")
	flag.Parse()
	if *list {
		fmt.Println("# Table III — simulation-speed configurations")
		for _, c := range ssdx.TableIII() {
			fmt.Printf("%-4s %s\n", c.Name, c.Describe())
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	rows, err := ssdx.SimulationSpeed(*scale)
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // flush before reporting; the deferred stop is a no-op
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle allocations so the heap profile reflects live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Println("# Fig. 6 — simulation speed (KCPS)")
	ssdx.WriteSpeedTable(os.Stdout, rows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simspeed:", err)
	os.Exit(1)
}
