// Command ssdexplorer runs one SSD platform simulation: a configuration
// (preset or file) plus a synthetic workload or trace file, in any of the
// paper's measurement modes, and prints the measured result.
//
// Examples:
//
//	ssdexplorer -preset vertex -pattern SW -requests 20000
//	ssdexplorer -preset t2:C6 -mode ddr+flash
//	ssdexplorer -pattern RR -mix 0.3 -skew zipf:0.99 -arrival poisson:30000
//	ssdexplorer -pattern RW -precondition 4000 -requests 8000
//	ssdexplorer -tenants 'victim@high:6000xRR | noisy*4:20000xSW' -arb prio
//	ssdexplorer -config my.cfg -trace workload.trace
//	ssdexplorer -preset vertex -dumpconfig
//	ssdexplorer -features
package main

import (
	"flag"
	"fmt"
	"os"

	ssdx "repro"
)

func main() {
	var (
		preset     = flag.String("preset", "default", "configuration preset: default, vertex, t2:C1..C10, t3:C1..C8")
		configPath = flag.String("config", "", "platform configuration file (overrides -preset)")
		pattern    = flag.String("pattern", "SW", "workload pattern: SW, SR, RW, RR")
		block      = flag.Int64("block", 4096, "request payload in bytes")
		span       = flag.Int64("span", 1<<28, "addressable span exercised, bytes")
		requests   = flag.Int("requests", 12000, "number of requests")
		seed       = flag.Uint64("seed", 1, "workload generator seed")
		mix        = flag.Float64("mix", 0, "write fraction for mixed read/write traffic (0 = pattern direction)")
		skew       = flag.String("skew", "", "address skew: uniform, zipf:<theta>, hotspot:<frac>:<prob>")
		arrival    = flag.String("arrival", "", "arrival process: closed, poisson:<iops>, onoff:<iops>:<on_ms>:<off_ms>")
		precond    = flag.Int("precondition", 0, "sequential-write requests issued as an unmeasured phase before the measured workload")
		phasesSpec = flag.String("phases", "", "multi-phase scenario, e.g. '4000xSW;8000xRR,skew=zipf:0.9,record' (overrides -pattern/-requests; record flags the measured window)")
		tenantSpec = flag.String("tenants", "", "multi-tenant scenario, e.g. 'victim@high:6000xRR | noisy*4:20000xSW,arrival=poisson:50000' (each tenant is <name>[@class][*weight][#depth][!burst]:<phases>)")
		arbPolicy  = flag.String("arb", "rr", "arbitration policy between tenant queues: rr, wrr, prio")
		mode       = flag.String("mode", "ssd", "measurement mode: ssd, host-ideal, host+ddr, ddr+flash")
		tracePath  = flag.String("trace", "", "replay a trace file instead of a synthetic workload")
		dump       = flag.Bool("dumpconfig", false, "print the resolved configuration and exit")
		features   = flag.Bool("features", false, "print the Table I feature matrix and exit")
		verbose    = flag.Bool("v", false, "print microarchitectural detail")
		utilFlag   = flag.Bool("utilization", false, "trace device-wide utilization and print the per-resource report")
		traceOut   = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON file of the run (implies tracing)")
		statusAddr = flag.String("status", "", "serve live /metrics, /progress and /debug/pprof on this address (e.g. :9100) for the duration of the run")
	)
	flag.Parse()

	if *features {
		fmt.Print(ssdx.FeatureMatrix())
		return
	}

	cfg, err := resolveConfig(*configPath, *preset)
	if err != nil {
		fatal(err)
	}
	if *dump {
		if err := cfg.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}

	// The instruments attach to the platform before the run and outlive
	// it: -trace-out needs the raw event buffer, -utilization only
	// aggregates, -status scrapes the registry while the simulation
	// executes.
	tracing := *utilFlag || *traceOut != ""
	var reg *ssdx.MetricsRegistry
	if *statusAddr != "" {
		reg = ssdx.NewMetricsRegistry()
		srv, addr, err := ssdx.ServeStatus(*statusAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# status: http://%s/metrics (JSON snapshot at /progress, profiles at /debug/pprof)\n", addr)
	}
	var tracer *ssdx.Tracer
	instrument := func(p *ssdx.Platform) {
		if tracing {
			tracer = p.EnableTracing(ssdx.TraceOptions{Events: *traceOut != ""})
		}
		p.EnableMetrics(reg)
	}

	pt := ssdx.Point{Config: cfg, Mode: m}
	switch {
	case *tenantSpec != "":
		if *phasesSpec != "" || *tracePath != "" || *mix != 0 || *skew != "" || *arrival != "" || *precond > 0 {
			fatal(fmt.Errorf("-tenants cannot be combined with -phases/-trace/-mix/-skew/-arrival/-precondition; set those per tenant in the spec"))
		}
		base := ssdx.Workload{BlockSize: *block, SpanBytes: *span, Seed: *seed}
		set, err := ssdx.ParseTenants(*tenantSpec, base)
		if err != nil {
			fatal(err)
		}
		if set.Policy, err = ssdx.ParseQoSPolicy(*arbPolicy); err != nil {
			fatal(err)
		}
		pt.Tenants, pt.Policy = set.Tenants, set.Policy
	case *tracePath != "":
		// Single-pass streaming replay: no pre-scan. Each read preloads its
		// page on first touch, and the platform adapts the WAF abstraction
		// to the stream's windowed write classification while the file
		// plays.
		pt.Workload = ssdx.Workload{TracePath: *tracePath}
	case *phasesSpec != "":
		if *mix != 0 || *skew != "" || *arrival != "" || *precond > 0 {
			fatal(fmt.Errorf("-phases cannot be combined with -mix/-skew/-arrival/-precondition; set those per phase in the spec (e.g. %q)",
				"8000xRR,mix=0.3,skew=zipf:0.9,arrival=poisson:30000,record"))
		}
		base := ssdx.Workload{BlockSize: *block, SpanBytes: *span, Seed: *seed}
		if pt.Workload, err = ssdx.ParsePhases(*phasesSpec, base); err != nil {
			fatal(err)
		}
	default:
		w, err := ssdx.NewWorkload(*pattern, *block, *span, *requests)
		if err != nil {
			fatal(err)
		}
		w.Seed = *seed
		w.WriteFrac = *mix
		if w.Skew, err = ssdx.ParseSkew(*skew); err != nil {
			fatal(err)
		}
		if w.Arrival, err = ssdx.ParseArrival(*arrival); err != nil {
			fatal(err)
		}
		if *precond > 0 {
			// The preconditioning phase shapes device state but stays out
			// of the measured window: only the main workload is recorded.
			measure := w
			measure.Record = true
			pre := ssdx.Workload{
				Pattern: ssdx.SeqWrite, BlockSize: *block, SpanBytes: *span,
				Requests: *precond, Seed: *seed,
			}
			w = ssdx.Workload{Phases: []ssdx.Workload{pre, measure}}
		}
		pt.Workload = w
	}
	res, err := pt.Run(instrument)
	if err != nil {
		fatal(err)
	}

	fmt.Println(res)
	printLat := func(class string, s ssdx.LatencyStats) {
		if s.Ops == 0 {
			return
		}
		fmt.Printf("  %-5s lat us: mean %.1f  p50 %.1f  p99 %.1f  p999 %.1f  max %.1f (%d ops)\n",
			class, s.MeanUS, s.P50US, s.P99US, s.P999US, s.MaxUS, s.Ops)
	}
	printLat("read", res.ReadLat)
	printLat("write", res.WriteLat)
	if len(res.Tenants) > 0 {
		fmt.Printf("  fairness %.3f (jain, weight-normalised MB/s)\n", res.Fairness)
		for _, tr := range res.Tenants {
			fmt.Printf("  tenant %-10s %-6s w%-2d %8.1f MB/s  mean %8.1f  p50 %8.1f  p99 %8.1f  slowdown %5.2fx  queued %8.1f  (%d ops)\n",
				tr.Name, tr.Class, tr.Weight, tr.MBps,
				tr.AllLat.MeanUS, tr.AllLat.P50US, tr.AllLat.P99US,
				tr.Slowdown, tr.Stages.Queued.MeanUS, tr.AllLat.Ops)
		}
	}
	if res.Saturated {
		fmt.Printf("  SATURATED: arrival backlog growing at %.2f s/s — offered load exceeds device capacity; latency figures describe the run length, not the device\n",
			res.BacklogGrowth)
	}
	stages := ssdx.Stages()
	if res.AllLat.Ops > 0 {
		fmt.Printf("  stage mean us:")
		for _, st := range stages {
			if s := res.Stages.ByStage(st); s.MeanUS > 0 {
				fmt.Printf("  %v %.1f", st, s.MeanUS)
			}
		}
		fmt.Println()
	}
	printPhases := func(indent string, phases []ssdx.PhaseProfile) {
		for _, ph := range phases {
			marker := " "
			if ph.Recorded {
				marker = "*" // part of the measured window
			}
			label := ph.Label
			if label == "" {
				label = "?"
			}
			fmt.Printf("%sphase %d%s mean %8.1f  p99 %8.1f  (%d ops)  %s\n",
				indent, ph.Index, marker, ph.All.MeanUS, ph.All.P99US, ph.Ops, label)
			fmt.Printf("%s        stage mean us:", indent)
			for _, st := range stages {
				if s := ph.Stages.ByStage(st); s.MeanUS > 0 {
					fmt.Printf("  %v %.1f", st, s.MeanUS)
				}
			}
			fmt.Println()
		}
	}
	printPhases("  ", res.Phases)
	for _, tr := range res.Tenants {
		if len(tr.Phases) > 0 {
			fmt.Printf("  tenant %s phases:\n", tr.Name)
			printPhases("    ", tr.Phases)
		}
	}
	if *utilFlag && res.Utilization != nil {
		fmt.Println()
		fmt.Print(res.Utilization.Summary(12))
	}
	if *traceOut != "" && tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WritePerfetto(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		logged, dropped := tracer.EventCount()
		fmt.Printf("  trace: %s (%d events, %d dropped; open in ui.perfetto.dev)\n", *traceOut, logged, dropped)
	}
	if *verbose {
		printLat("all", res.AllLat)
		for _, st := range stages {
			s := res.Stages.ByStage(st)
			if s.Ops == 0 {
				continue
			}
			fmt.Printf("  stage %-6v us: mean %.1f  p50 %.1f  p99 %.1f  max %.1f\n",
				st, s.MeanUS, s.P50US, s.P99US, s.MaxUS)
		}
		if res.BacklogGrowth != 0 {
			fmt.Printf("  backlog growth %.4f s/s\n", res.BacklogGrowth)
		}
		fmt.Printf("  steady %.1f MB/s (whole-run %.1f)\n", res.MBps, res.RampMBps)
		fmt.Printf("  sim time %v, wall %.2fs, %d events, %.0f KCPS\n",
			res.SimTime, res.WallSeconds, res.Events, res.KCPS)
		fmt.Printf("  host queue peak %d, WAF %.2f\n", res.HostQueuePeak, res.WAF)
		fmt.Printf("  AHB util %.2f, CPU util %.2f\n", res.BusUtil, res.CPUUtil)
		fmt.Printf("  flash: %d user pages, %d GC copies, %d erases, %d reads\n",
			res.UserPages, res.GCCopies, res.Erases, res.FlashReads)
	}
}

func resolveConfig(path, preset string) (ssdx.Config, error) {
	if path != "" {
		return ssdx.LoadConfig(path)
	}
	return ssdx.Preset(preset)
}

func parseMode(s string) (ssdx.Mode, error) {
	switch s {
	case "ssd", "full":
		return ssdx.ModeFull, nil
	case "host-ideal", "ideal":
		return ssdx.ModeHostIdeal, nil
	case "host+ddr", "hostddr":
		return ssdx.ModeHostDDR, nil
	case "ddr+flash", "drain":
		return ssdx.ModeDDRFlash, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssdexplorer:", err)
	os.Exit(1)
}
