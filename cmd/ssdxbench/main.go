// Command ssdxbench is the simulator's benchmark (schema ssdx-bench/v2). It
// runs five workloads that stress different layers of the simulator,
// reports end-to-end host-time metrics with their spread, checks every
// simulated result against committed digests, and with -layers takes each
// workload apart layer by layer.
//
// Every sample runs in a fresh child process (the binary re-executes itself
// with -child), because a CLI user pays the first Build of a process and a
// reused heap slows later runs.
//
// Examples, from this directory:
//
//	go run .                                  # every workload, one sample each
//	go run . -reps 10 -out change.jsonl       # median and quartiles of 10
//	go run . -workload nvme-tenants-wrr -seconds 12
//	go run . -layers -trace out.json          # per-layer metrics + Perfetto trace
//	go run . -compare parent.jsonl change.jsonl -claim t3c8-seqwrite:sim_req_per_s
//	go run . -update                          # regenerate testdata/digests.json
//
// With -workload set, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("ssdxbench", flag.ContinueOnError)
	var (
		only     = fs.String("workload", "", "run only this workload (default: all)")
		seed     = fs.Uint64("seed", 7, "seed the workload inputs are generated from")
		seconds  = fs.Float64("seconds", 0, "keep taking samples of each workload until this many seconds have passed")
		reps     = fs.Int("reps", 1, "take at least this many samples of each workload")
		traceArg = fs.String("trace", "0", "0: end-to-end run; 1: per-layer run, as -layers; a file path: per-layer run that also writes Chrome trace-event JSON there")
		layers   = fs.Bool("layers", false, "run the per-layer pass instead of the end-to-end samples")
		scale    = fs.Float64("scale", 1, "multiply every request count by this factor")
		out      = fs.String("out", "", "append one JSON line per sample to this file, for -compare")
		compare  = fs.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
		claim    = fs.String("claim", "", "with -compare: the workload:metric the change claims to improve")
		update   = fs.Bool("update", false, "regenerate testdata/digests.json for seeds 7 and 11 at full scale")
		child    = fs.String("child", "", "internal: run one sample of this workload in this process")
		epoch    = fs.Int64("epoch", 0, "internal: the run's span epoch in unix nanoseconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale <= 0 || *reps < 1 {
		fmt.Fprintln(os.Stderr, "ssdxbench: -scale and -reps must be positive")
		return 2
	}
	switch {
	case *child != "":
		return runChild(*child, *seed, *scale, *layers, *epoch)
	case *compare:
		files := fs.Args()
		if len(files) > 2 { // flags after the two files, as in -compare a b -claim w:m
			if err := fs.Parse(files[2:]); err != nil {
				return 2
			}
			files = append(files[:2:2], fs.Args()...)
		}
		return runCompare(files, *claim)
	case *update:
		return runUpdate()
	}
	tracePath := ""
	switch *traceArg {
	case "0":
	case "1":
		*layers = true
	default:
		*layers = true
		tracePath = *traceArg
	}
	names := []string{*only}
	if *only == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(*only); err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 2
	}
	var sink *os.File
	if *out != "" {
		if sink, err = os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ssdxbench:", err)
			return 2
		}
		defer sink.Close()
	}

	b := bench{seed: *seed, scale: *scale, layers: *layers, epoch: time.Now(), digests: digests}
	attempted, failed := 0, 0
	var last []sample
	var procs []processSpans
	for _, name := range names {
		samples := b.collect(name, *reps, *seconds)
		for _, s := range samples {
			attempted++
			if s.Failed {
				failed++
				fmt.Fprintf(os.Stderr, "ssdxbench: %s: %s\n", name, s.Err)
			}
			if sink != nil {
				if err := json.NewEncoder(sink).Encode(s); err != nil {
					fmt.Fprintln(os.Stderr, "ssdxbench:", err)
					return 2
				}
			}
			if len(s.spans) > 0 {
				procs = append(procs, processSpans{Workload: name, Spans: s.spans})
			}
		}
		printSummary(os.Stdout, name, samples, *layers)
		last = samples
	}
	if tracePath != "" {
		if err := writeChromeTrace(tracePath, strconv.FormatInt(b.epoch.UnixNano(), 36), procs); err != nil {
			fmt.Fprintln(os.Stderr, "ssdxbench: write trace:", err)
			return 2
		}
	}
	if *only != "" {
		list := endToEnd
		if *layers {
			list = perLayer
		}
		if err := printResultLine(os.Stdout, last, list); err != nil {
			fmt.Fprintln(os.Stderr, "ssdxbench:", err)
			return 2
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// sample is one workload process's outcome, as the -out files record it.
type sample struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Scale    float64            `json:"scale"`
	Layers   bool               `json:"layers"`
	Failed   bool               `json:"failed"`
	Err      string             `json:"err,omitempty"`
	Digest   string             `json:"digest,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	spans    []span
}

// bench holds the settings every sample of one invocation shares.
type bench struct {
	seed    uint64
	scale   float64
	layers  bool
	epoch   time.Time
	digests digestFile
}

// collect takes samples of one workload: one per-layer pass, or at least
// reps end-to-end samples, and more while another sample of the median
// duration so far still ends within seconds.
func (b bench) collect(name string, reps int, seconds float64) []sample {
	if b.layers {
		return []sample{b.spawn(name)}
	}
	var samples []sample
	var took []float64
	start := time.Now()
	for len(samples) < reps || time.Since(start).Seconds()+median(took) <= seconds {
		t0 := time.Now()
		s := b.spawn(name)
		took = append(took, time.Since(t0).Seconds())
		if !s.Failed {
			b.checkDigest(&s, samples)
		}
		samples = append(samples, s)
	}
	return samples
}

// checkDigest fails a sample whose results differ from the committed digest
// (full scale, committed seed) or, otherwise, from the first sample's.
func (b bench) checkDigest(s *sample, earlier []sample) {
	if want, ok := b.digests.expected(b.seed, s.Workload); ok && b.scale == 1 {
		if s.Digest != want {
			s.Failed = true
			s.Err = fmt.Sprintf("result digest %s, committed %s", s.Digest, want)
		}
		return
	}
	for _, e := range earlier {
		if e.Digest != "" && e.Digest != s.Digest {
			s.Failed = true
			s.Err = fmt.Sprintf("result digest %s differs from an earlier sample's %s", s.Digest, e.Digest)
			return
		}
	}
}

// spawn runs one sample in a child process and waits for it to end.
func (b bench) spawn(name string) sample {
	s := sample{Workload: name, Seed: b.seed, Scale: b.scale, Layers: b.layers}
	fail := func(format string, a ...any) sample {
		s.Failed = true
		s.Err = fmt.Sprintf(format, a...)
		return s
	}
	exe, err := os.Executable()
	if err != nil {
		return fail("locate executable: %v", err)
	}
	args := []string{"-child", name, "-seed", strconv.FormatUint(b.seed, 10),
		"-scale", strconv.FormatFloat(b.scale, 'g', -1, 64), "-epoch", strconv.FormatInt(b.epoch.UnixNano(), 10)}
	if b.layers {
		args = append(args, "-layers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fail("workload process: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rec childRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return fail("workload process record: %v", err)
	}
	s.Metrics, s.Digest, s.spans = rec.Metrics, rec.Digest, rec.Spans
	if s.Metrics == nil {
		s.Metrics = map[string]float64{}
	}
	if rec.Err != "" {
		return fail("%s", rec.Err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !b.layers {
		s.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return s
}

// runUpdate regenerates the committed digests.
func runUpdate() int {
	d := digestFile{}
	for _, seed := range []uint64{7, 11} {
		key := strconv.FormatUint(seed, 10)
		d[key] = map[string]string{}
		b := bench{seed: seed, scale: 1, epoch: time.Now()}
		for _, w := range workloads {
			s := b.spawn(w.name)
			if s.Failed {
				fmt.Fprintf(os.Stderr, "ssdxbench: %s seed %d: %s\n", w.name, seed, s.Err)
				return 1
			}
			d[key][w.name] = s.Digest
			fmt.Printf("%d %s %s\n", seed, w.name, s.Digest)
		}
	}
	if err := writeDigests("testdata/digests.json", d); err != nil {
		fmt.Fprintln(os.Stderr, "ssdxbench:", err)
		return 1
	}
	return 0
}
