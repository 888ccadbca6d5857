// Command explore is the fine-grained design-space exploration front end:
// it sweeps a Cartesian space of platform / workload axes on a parallel
// worker pool, caches results by content hash so repeated sweeps are
// incremental, ranks the outcomes by Pareto dominance under the requested
// objectives, and exports the full sweep as CSV or JSON.
//
// Example (a 108-point space on 8 workers):
//
//	explore -channels 2,4,8 -ways 1,2,4 -dies 1,2,4 \
//	        -host sata2,pcie-g2x8 -pattern SW,RR \
//	        -objectives mbps,latency,waf -j 8 -cache sweep.cache
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	ssdx "repro"
	"repro/internal/trace"
)

func main() {
	var (
		channels = flag.String("channels", "2,4,8", "comma-separated channel counts")
		ways     = flag.String("ways", "1,2,4", "comma-separated way counts")
		dies     = flag.String("dies", "", "comma-separated dies per way (empty = base)")
		buffers  = flag.String("buffers", "", "comma-separated DDR buffer counts (empty = base)")
		host     = flag.String("host", "sata2", "comma-separated host interfaces (sata2, pcie-g2x8, ...)")
		nand     = flag.String("nand", "", "comma-separated NAND profiles (explore, vertex)")
		eccs     = flag.String("ecc", "", "comma-separated ECC schemes (none, fixed, adaptive)")
		ftl      = flag.String("ftl", "", "comma-separated FTL modes (waf, mapper)")
		cachepol = flag.String("cachepol", "", "comma-separated buffer policies (cache, nocache)")
		patterns = flag.String("pattern", "SW", "comma-separated workload patterns (SW, SR, RW, RR)")
		blocks   = flag.String("block", "4096", "comma-separated request sizes in bytes")
		mixes    = flag.String("mix", "", "comma-separated write fractions for mixed read/write traffic (empty = pattern direction)")
		skews    = flag.String("skew", "", "comma-separated address skews (uniform, zipf:<theta>, hotspot:<frac>:<prob>)")
		arrivals = flag.String("arrival", "", "comma-separated arrival processes (closed, poisson:<iops>, onoff:<iops>:<on_ms>:<off_ms>)")
		tenants  = flag.String("tenants", "", "multi-tenant scenario swept instead of the single-workload axes, e.g. 'victim@high:2000xRR | noisy*4!8:8000xSW' (header: <name>[@class][*weight][#depth][!burst])")
		arbs     = flag.String("arb", "", "comma-separated arbitration policies to sweep with -tenants (rr, wrr, prio; empty = rr)")
		span     = flag.Int64("span", 1<<28, "addressable span in bytes")
		requests = flag.Int("requests", 2000, "requests per point")
		preset   = flag.String("preset", "default", "base configuration preset for unswept axes")
		objSpec  = flag.String("objectives", "mbps,latency,waf", "Pareto objectives (mbps, ramp, latency, p99, p999, readp99, writep99, waf, erases, wearout, gc, events, backlog, fairness, maxslowdown, worstp99, and per-stage tails: queuedp99, wirep99, cpup99, dramp99, chanp99, nandp99, eccp99)")
		prune    = flag.Bool("prune", false, "early-abort open-loop points whose arrival backlog diverges during a warm-up probe (reported as saturated, full run skipped)")
		warmup   = flag.Int("warmup", 0, "warm-up probe request quota for -prune (0 = default)")
		workers  = flag.Int("j", runtime.NumCPU(), "parallel workers")
		sample   = flag.Int("sample", 0, "evaluate only N seeded-random points of the space (0 = all)")
		seed     = flag.Uint64("seed", 1, "sampling seed")
		cacheF   = flag.String("cache", "", "result cache file (loaded if present, saved after the sweep)")
		csvF     = flag.String("csv", "", "write the full sweep as CSV to this file ('-' = stdout)")
		jsonF    = flag.String("json", "", "write the full sweep as JSON to this file ('-' = stdout)")
		front    = flag.Bool("front", false, "print only the Pareto front")
		quiet    = flag.Bool("quiet", false, "suppress per-point progress")
		parallel = flag.Bool("parallel", false, "evaluate every point on the sharded per-channel event core (conservative-lookahead clock domains)")
		utilFlag = flag.Bool("utilization", false, "trace device-wide utilization on every point (fills the *_util/gc_frac CSV columns and the 'utilization' objective)")
		traceOut = flag.String("trace-out", "", "after the sweep, re-run the best-ranked point with full event tracing and write its Perfetto JSON here")
		status   = flag.String("status", "", "serve live /metrics (Prometheus), /progress (JSON with the streaming Pareto front) and /debug/pprof on this address (e.g. :9090) for the duration of the sweep")
		journal  = flag.String("journal", "", "write a structured JSONL run journal here: a sealed run manifest (config hash, seed, space size, version) then one line per evaluation")
	)
	flag.Parse()

	base, err := ssdx.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	if *parallel {
		base.Parallel = true
	}
	space := ssdx.Space{
		Base:      base,
		SpanBytes: *span,
		Requests:  *requests,
	}
	if space.Channels, err = ints(*channels); err != nil {
		fatal(fmt.Errorf("-channels: %w", err))
	}
	if space.Ways, err = ints(*ways); err != nil {
		fatal(fmt.Errorf("-ways: %w", err))
	}
	if space.DiesPerWay, err = ints(*dies); err != nil {
		fatal(fmt.Errorf("-dies: %w", err))
	}
	if space.DDRBuffers, err = ints(*buffers); err != nil {
		fatal(fmt.Errorf("-buffers: %w", err))
	}
	space.HostIF = words(*host)
	space.NANDProfile = words(*nand)
	space.ECCScheme = words(*eccs)
	space.FTLMode = words(*ftl)
	space.CachePolicy = words(*cachepol)
	for _, p := range words(*patterns) {
		pat, err := trace.ParsePattern(p)
		if err != nil {
			fatal(err)
		}
		space.Patterns = append(space.Patterns, pat)
	}
	if bs, err := ints(*blocks); err != nil {
		fatal(fmt.Errorf("-block: %w", err))
	} else {
		for _, b := range bs {
			space.BlockSizes = append(space.BlockSizes, int64(b))
		}
	}
	for _, m := range words(*mixes) {
		v, err := strconv.ParseFloat(m, 64)
		if err != nil {
			fatal(fmt.Errorf("-mix: %w", err))
		}
		space.WriteFracs = append(space.WriteFracs, v)
	}
	for _, s := range words(*skews) {
		sk, err := ssdx.ParseSkew(s)
		if err != nil {
			fatal(err)
		}
		space.Skews = append(space.Skews, sk)
	}
	for _, a := range words(*arrivals) {
		ar, err := ssdx.ParseArrival(a)
		if err != nil {
			fatal(err)
		}
		space.Arrivals = append(space.Arrivals, ar)
	}
	if *tenants != "" {
		// A tenant mix replaces the single-workload axes: each queue
		// carries its own workload, and -arb sweeps the arbitration policy
		// across the same mix.
		set, err := ssdx.ParseTenants(*tenants, ssdx.Workload{SpanBytes: *span, Seed: 1})
		if err != nil {
			fatal(err)
		}
		space.TenantMixes = [][]ssdx.Tenant{set.Tenants}
		space.Patterns, space.BlockSizes = nil, nil
		space.WriteFracs, space.Skews, space.Arrivals = nil, nil, nil
		for _, a := range words(*arbs) {
			p, err := ssdx.ParseQoSPolicy(a)
			if err != nil {
				fatal(err)
			}
			space.Policies = append(space.Policies, p)
		}
	} else if *arbs != "" {
		fatal(fmt.Errorf("-arb requires -tenants"))
	}

	objs, err := ssdx.ParseObjectives(*objSpec)
	if err != nil {
		fatal(err)
	}

	pts, err := space.Sample(pickN(*sample, space), *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "# space: %d points (%d to evaluate), %d workers\n",
		space.Size(), len(pts), *workers)

	cache := ssdx.NewCache()
	if *cacheF != "" {
		if cache, err = ssdx.LoadResultCache(*cacheF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# cache: %d entries loaded from %s\n", cache.Len(), *cacheF)
	}
	runner := &ssdx.Runner{Workers: *workers, Cache: cache, PruneSaturated: *prune,
		WarmupRequests: *warmup, Utilization: *utilFlag}

	// The monitor always runs: it feeds the progress line's rate/ETA, the
	// -status endpoint's /progress document, and costs nothing observable
	// against a real sweep.
	monitor := ssdx.NewSweepMonitor(len(pts), objs)
	var runJournal *ssdx.RunJournal
	if *journal != "" {
		manifest := ssdx.NewRunManifest(space, pts, objs)
		if runJournal, err = ssdx.CreateRunJournal(*journal, manifest, objs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# journal: %s (config %.12s, manifest %.12s)\n",
			*journal, manifest.ConfigHash, manifest.Hash)
	}
	if *status != "" {
		reg := ssdx.NewMetricsRegistry()
		runner.Metrics = reg
		monitor.ExportMetrics(reg)
		srv, addr, err := ssdx.ServeStatus(*status, reg, monitor)
		if err != nil {
			fatal(fmt.Errorf("-status: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# status: http://%s/metrics /progress /debug/pprof\n", addr)
	}
	quietF := *quiet
	runner.OnProgress = func(done, total int, ev ssdx.Eval) {
		if runJournal != nil {
			if err := runJournal.Record(ev); err != nil {
				fmt.Fprintln(os.Stderr, "explore: journal:", err)
			}
		}
		monitor.Observe(ev)
		if quietF {
			return
		}
		mark := " "
		if ev.Cached {
			mark = "~"
		}
		if ev.Pruned {
			mark = "s" // saturated during the warm-up probe; full run skipped
		}
		if ev.Failed() {
			mark = "!"
		}
		rate, eta := monitor.Rate()
		fmt.Fprintf(os.Stderr, "\r[%4d/%4d]%s %-48s %8.1f MB/s %6.1f pt/s ETA %s",
			done, total, mark, ev.Point.Describe(), ev.Result.MBps, rate, fmtETA(eta))
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	evals, runErr := runner.Run(ctx, pts)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "explore:", runErr)
		// Fall through: partial results (and the cache) are still worth
		// saving and printing, but exit non-zero so scripts notice.
	}
	if runJournal != nil {
		if err := runJournal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "explore: journal:", err)
		}
	}
	if *cacheF != "" {
		if err := cache.Save(*cacheF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# cache: %d entries saved to %s\n", cache.Len(), *cacheF)
	}
	// The hit/miss summary always prints: even without a cache file the
	// in-process cache dedupes identical points within one sweep.
	hits, misses := cache.Stats()
	fmt.Fprintf(os.Stderr, "# cache: %d hits, %d misses (%d entries)\n", hits, misses, cache.Len())

	if *csvF != "" {
		if err := withOut(*csvF, func(w *os.File) error { return ssdx.WriteSweepCSV(w, evals) }); err != nil {
			fatal(err)
		}
	}
	if *jsonF != "" {
		if err := withOut(*jsonF, func(w *os.File) error { return ssdx.WriteSweepJSON(w, evals, objs) }); err != nil {
			fatal(err)
		}
	}
	printTable(evals, objs, *front)
	if *traceOut != "" {
		if err := traceBest(evals, objs, *traceOut); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// traceBest re-runs the sweep's best-ranked successful point with full event
// tracing and writes its Perfetto/Chrome trace-event JSON — the "now show me
// why" step after a sweep picks a design.
func traceBest(evals []ssdx.Eval, objs []ssdx.Objective, path string) error {
	var best *ssdx.Eval
	for _, ev := range ssdx.SortByParetoRank(evals, objs) {
		if !ev.Failed() && !ev.Pruned {
			best = &ev
			break
		}
	}
	if best == nil {
		return fmt.Errorf("-trace-out: no successful evaluation to trace")
	}
	var tracer *ssdx.Tracer
	var err error
	if len(best.Point.Tenants) > 0 {
		_, tracer, err = ssdx.TraceRunTenants(best.Point.Config, best.Point.TenantSet(), best.Point.Mode)
	} else {
		_, tracer, err = ssdx.TraceRun(best.Point.Config, best.Point.Workload, best.Point.Mode)
	}
	if err != nil {
		return fmt.Errorf("-trace-out: re-running p%04d: %w", best.Point.Index, err)
	}
	if err := withOut(path, func(f *os.File) error { return tracer.WritePerfetto(f) }); err != nil {
		return err
	}
	logged, dropped := tracer.EventCount()
	fmt.Fprintf(os.Stderr, "# trace: p%04d (%s) -> %s (%d events, %d dropped; open in ui.perfetto.dev)\n",
		best.Point.Index, best.Point.Describe(), path, logged, dropped)
	return nil
}

// printTable renders the rank-sorted sweep (or just the front) to stdout.
// The quadratic non-dominated sort runs once; rows order by (rank, first
// objective, input order) like ssdx.SortByParetoRank.
func printTable(evals []ssdx.Eval, objs []ssdx.Objective, frontOnly bool) {
	ranks := ssdx.ParetoRanks(evals, objs)
	score := func(i int) float64 {
		v := objs[0].Value(evals[i].Result)
		if !objs[0].Maximize {
			return -v
		}
		return v
	}
	order := make([]int, len(evals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		ri, rj := ranks[i], ranks[j]
		if ri < 0 || rj < 0 { // failed evals last
			return rj < 0 && ri >= 0
		}
		if ri != rj {
			return ri < rj
		}
		if si, sj := score(i), score(j); si != sj {
			return si > sj
		}
		return i < j
	})
	tenanted := false
	for _, ev := range evals {
		if len(ev.Point.Tenants) > 0 {
			tenanted = true
			break
		}
	}
	fmt.Printf("%-6s %-5s %-44s %10s %12s %10s %8s %8s",
		"point", "rank", "design", "MB/s", "mean-lat-us", "p99-us", "WAF", "cached")
	if tenanted {
		fmt.Printf(" %8s", "fairness")
	}
	fmt.Println()
	for _, i := range order {
		ev, r := evals[i], ranks[i]
		if frontOnly && r != 0 {
			continue
		}
		label := fmt.Sprintf("p%04d", ev.Point.Index)
		if r == 0 {
			label += "*"
		}
		if ev.Pruned {
			label += "s"
		}
		if ev.Failed() {
			fmt.Printf("%-6s %-5s %-44s failed: %s\n", label, "-", ev.Point.Describe(), ev.Err)
			continue
		}
		fmt.Printf("%-6s %-5d %-44s %10.1f %12.1f %10.1f %8.2f %8v",
			label, r, ev.Point.Describe(),
			ev.Result.MBps, ev.Result.AllLat.MeanUS, ev.Result.AllLat.P99US,
			ev.Result.WAF, ev.Cached)
		if tenanted {
			fmt.Printf(" %8.3f", ev.Result.Fairness)
		}
		fmt.Println()
	}
}

// fmtETA renders an ETA compactly ("--" before a rate exists, then 42s /
// 3m10s / 1h02m).
func fmtETA(sec float64) string {
	if sec <= 0 {
		return "--"
	}
	s := int(sec + 0.5)
	switch {
	case s < 60:
		return fmt.Sprintf("%ds", s)
	case s < 3600:
		return fmt.Sprintf("%dm%02ds", s/60, s%60)
	default:
		return fmt.Sprintf("%dh%02dm", s/3600, (s%3600)/60)
	}
}

// pickN resolves the -sample flag: 0 means the whole space.
func pickN(n int, s ssdx.Space) int {
	if n <= 0 || int64(n) > s.Size() {
		if s.Size() > int64(^uint(0)>>1) {
			fatal(fmt.Errorf("space of %d points needs -sample", s.Size()))
		}
		return int(s.Size())
	}
	return n
}

// ints parses a comma-separated integer list ("" = nil).
func ints(s string) ([]int, error) {
	var out []int
	for _, part := range words(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// words splits a comma-separated list, trimming blanks ("" = nil).
func words(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// withOut opens path for writing ('-' = stdout) and runs fn.
func withOut(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(1)
}
