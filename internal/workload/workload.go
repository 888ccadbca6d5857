// Package workload is the streaming workload subsystem of the platform: it
// compiles a declarative Spec into a pull-based Stream of host requests that
// the host interface's trace player consumes one at a time, with no
// O(requests) materialisation. The four IOZone patterns the paper validates
// against (§III-G) are reproduced byte-identically; beyond them the package
// composes mixed read/write ratios, zipfian and hotspot address skew,
// open-loop arrival processes (Poisson and bursty ON/OFF), multi-phase
// scenarios (precondition then measure), and trace-file replay. Every shape
// compiles to the same phase chain (a plain spec is a chain of one phase),
// so every shape is sweepable by the DSE engine and replayable through every
// measurement mode, and no player needs to know which shape it plays.
package workload

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Generator supplies host requests one at a time: the pull contract is
// trace.Stream's. A Spec's Generator is its compiled Stream, which also
// implements io.Closer and Err() error.
type Generator = trace.Stream

// SkewKind selects the address-distribution model of a synthetic workload.
type SkewKind uint8

// Address skew models.
const (
	// SkewNone keeps the base pattern's addressing (sequential wraparound
	// or uniform random).
	SkewNone SkewKind = iota
	// SkewZipf draws block addresses from a scrambled zipfian distribution
	// with exponent Theta (YCSB-style: popular blocks scattered over the
	// whole span).
	SkewZipf
	// SkewHotspot sends HotProb of the accesses into the first HotFrac of
	// the span and spreads the rest uniformly over the remainder.
	SkewHotspot
)

// Skew describes address skew. The zero value is SkewNone.
type Skew struct {
	Kind    SkewKind `json:"kind"`
	Theta   float64  `json:"theta,omitempty"`    // zipf exponent, 0 < Theta < 1
	HotFrac float64  `json:"hot_frac,omitempty"` // hotspot region size, fraction of span
	HotProb float64  `json:"hot_prob,omitempty"` // probability of hitting the hot region
}

// ParseSkew decodes "uniform", "zipf:<theta>" or "hotspot:<frac>:<prob>".
func ParseSkew(s string) (Skew, error) {
	f := strings.Split(strings.ToLower(strings.TrimSpace(s)), ":")
	switch f[0] {
	case "", "uniform", "none":
		return Skew{}, nil
	case "zipf", "zipfian":
		sk := Skew{Kind: SkewZipf, Theta: 0.99}
		if len(f) > 1 {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return Skew{}, fmt.Errorf("workload: bad zipf theta %q", f[1])
			}
			sk.Theta = v
		}
		return sk, sk.Validate()
	case "hotspot", "hot":
		sk := Skew{Kind: SkewHotspot, HotFrac: 0.2, HotProb: 0.8}
		if len(f) > 2 {
			a, err1 := strconv.ParseFloat(f[1], 64)
			b, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil {
				return Skew{}, fmt.Errorf("workload: bad hotspot spec %q", s)
			}
			sk.HotFrac, sk.HotProb = a, b
		} else if len(f) == 2 {
			return Skew{}, fmt.Errorf("workload: hotspot wants hotspot:<frac>:<prob>, got %q", s)
		}
		return sk, sk.Validate()
	}
	return Skew{}, fmt.Errorf("workload: unknown skew %q", s)
}

// Validate checks the skew parameters.
func (s Skew) Validate() error {
	switch s.Kind {
	case SkewNone:
		return nil
	case SkewZipf:
		if s.Theta <= 0 || s.Theta >= 1 {
			return fmt.Errorf("workload: zipf theta %v outside (0,1)", s.Theta)
		}
		return nil
	case SkewHotspot:
		if s.HotFrac <= 0 || s.HotFrac >= 1 || s.HotProb <= 0 || s.HotProb > 1 {
			return fmt.Errorf("workload: hotspot frac %v / prob %v out of range", s.HotFrac, s.HotProb)
		}
		return nil
	}
	return fmt.Errorf("workload: unknown skew kind %d", s.Kind)
}

// String renders the skew in the ParseSkew syntax.
func (s Skew) String() string {
	switch s.Kind {
	case SkewZipf:
		return fmt.Sprintf("zipf:%g", s.Theta)
	case SkewHotspot:
		return fmt.Sprintf("hotspot:%g:%g", s.HotFrac, s.HotProb)
	}
	return "uniform"
}

// ArrivalKind selects the arrival process of a synthetic workload.
type ArrivalKind uint8

// Arrival processes.
const (
	// ArrivalClosed is the paper's closed-loop mode: every request arrives
	// immediately and the command window paces the device at saturation.
	ArrivalClosed ArrivalKind = iota
	// ArrivalPoisson is an open-loop memoryless process at RateIOPS.
	ArrivalPoisson
	// ArrivalOnOff is a bursty open-loop process: Poisson at RateIOPS
	// during ON windows of OnMS, silent for OffMS between them.
	ArrivalOnOff
)

// Arrival describes the arrival process. The zero value is closed-loop.
type Arrival struct {
	Kind     ArrivalKind `json:"kind"`
	RateIOPS float64     `json:"rate_iops,omitempty"`
	OnMS     float64     `json:"on_ms,omitempty"`
	OffMS    float64     `json:"off_ms,omitempty"`
}

// ParseArrival decodes "closed", "poisson:<iops>" or
// "onoff:<iops>:<on_ms>:<off_ms>".
func ParseArrival(s string) (Arrival, error) {
	f := strings.Split(strings.ToLower(strings.TrimSpace(s)), ":")
	switch f[0] {
	case "", "closed", "loop":
		return Arrival{}, nil
	case "poisson", "open":
		if len(f) != 2 {
			return Arrival{}, fmt.Errorf("workload: poisson wants poisson:<iops>, got %q", s)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return Arrival{}, fmt.Errorf("workload: bad poisson rate %q", f[1])
		}
		a := Arrival{Kind: ArrivalPoisson, RateIOPS: v}
		return a, a.Validate()
	case "onoff", "burst":
		if len(f) != 4 {
			return Arrival{}, fmt.Errorf("workload: onoff wants onoff:<iops>:<on_ms>:<off_ms>, got %q", s)
		}
		r, err1 := strconv.ParseFloat(f[1], 64)
		on, err2 := strconv.ParseFloat(f[2], 64)
		off, err3 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return Arrival{}, fmt.Errorf("workload: bad onoff spec %q", s)
		}
		a := Arrival{Kind: ArrivalOnOff, RateIOPS: r, OnMS: on, OffMS: off}
		return a, a.Validate()
	}
	return Arrival{}, fmt.Errorf("workload: unknown arrival process %q", s)
}

// Validate checks the arrival parameters.
func (a Arrival) Validate() error {
	switch a.Kind {
	case ArrivalClosed:
		return nil
	case ArrivalPoisson:
		if a.RateIOPS <= 0 {
			return fmt.Errorf("workload: poisson rate %v must be positive", a.RateIOPS)
		}
		return nil
	case ArrivalOnOff:
		if a.RateIOPS <= 0 || a.OnMS <= 0 || a.OffMS < 0 {
			return fmt.Errorf("workload: onoff rate %v / on %v / off %v out of range",
				a.RateIOPS, a.OnMS, a.OffMS)
		}
		return nil
	}
	return fmt.Errorf("workload: unknown arrival kind %d", a.Kind)
}

// Open reports whether the process generates non-zero arrival times.
func (a Arrival) Open() bool { return a.Kind != ArrivalClosed }

// String renders the arrival process in the ParseArrival syntax.
func (a Arrival) String() string {
	switch a.Kind {
	case ArrivalPoisson:
		return fmt.Sprintf("poisson:%g", a.RateIOPS)
	case ArrivalOnOff:
		return fmt.Sprintf("onoff:%g:%g:%g", a.RateIOPS, a.OnMS, a.OffMS)
	}
	return "closed"
}

// Spec declares one workload. A Spec with only the first six fields set is
// exactly the paper's synthetic IOZone benchmark and streams byte-identical
// requests to the legacy trace.WorkloadSpec generator; the remaining fields
// compose richer scenarios on top. TracePath and Phases override the
// synthetic shape: a trace spec replays a file, a phased spec concatenates
// sub-workloads (e.g. precondition then measure).
type Spec struct {
	Pattern   trace.Pattern `json:"pattern"`
	BlockSize int64         `json:"block_size"` // bytes per request (paper: 4096)
	SpanBytes int64         `json:"span_bytes"` // addressable region exercised
	Requests  int           `json:"requests"`
	Seed      uint64        `json:"seed"`
	AlignLBA  bool          `json:"align_lba,omitempty"`

	// WriteFrac mixes directions: 0 keeps the pattern's direction, a value
	// in (0,1] makes each request a write with that probability.
	WriteFrac float64 `json:"write_frac,omitempty"`
	// Skew shapes the address distribution. Any skew other than SkewNone
	// forces random addressing regardless of the base pattern.
	Skew Skew `json:"skew,omitempty"`
	// Arrival is the arrival process (closed loop by default).
	Arrival Arrival `json:"arrival,omitempty"`

	// TracePath, when set, replays the trace file instead of synthesising
	// requests. SpanBytes is the declared extent (a tenant's namespace
	// size); reads anywhere preload their page on first touch.
	TracePath string `json:"trace_path,omitempty"`
	// ReplaySeqWrites hints that the replayed trace's write traffic is
	// sequential, pinning the WAF abstraction to the sequential model
	// instead of the conservative random default. ScanTrace computes it
	// with a streaming pre-scan.
	ReplaySeqWrites bool `json:"replay_seq_writes,omitempty"`

	// Record marks a phase as part of the measured window. When any phase of
	// a phased spec sets Record, statistics (latency, stage breakdown,
	// throughput) cover only the flagged phases, and the collectors reset
	// each time the stream crosses from an unrecorded into a recorded phase
	// — so `precondition -> measure` reports the measure window only. When
	// no phase sets Record (and on non-phased specs) the whole run is
	// recorded, preserving the legacy behaviour.
	Record bool `json:"record,omitempty"`

	// Phases, when non-empty, concatenates sub-workloads in order. Open-loop
	// arrival clocks continue across phase boundaries. Phases must not nest.
	Phases []Spec `json:"phases,omitempty"`
}

// DefaultBlockSize is the 4 KB payload used throughout the paper.
const DefaultBlockSize = trace.DefaultBlockSize

// Validate checks the spec (and every phase) for consistency.
func (s Spec) Validate() error { return s.validate(true) }

func (s Spec) validate(allowPhases bool) error {
	if len(s.Phases) > 0 {
		if !allowPhases {
			return fmt.Errorf("workload: phases must not nest")
		}
		if s.TracePath != "" {
			return fmt.Errorf("workload: a spec cannot both replay a trace and declare phases")
		}
		for i, ph := range s.Phases {
			if err := ph.validate(false); err != nil {
				return fmt.Errorf("workload: phase %d: %w", i, err)
			}
		}
		return nil
	}
	if s.TracePath != "" {
		if s.SpanBytes < 0 {
			return fmt.Errorf("workload: negative span %d", s.SpanBytes)
		}
		return nil
	}
	if s.BlockSize <= 0 || s.BlockSize%trace.SectorSize != 0 {
		return fmt.Errorf("workload: block size %d must be a positive multiple of %d", s.BlockSize, trace.SectorSize)
	}
	if s.SpanBytes < s.BlockSize {
		return fmt.Errorf("workload: span %d smaller than block size %d", s.SpanBytes, s.BlockSize)
	}
	if s.Requests <= 0 {
		return fmt.Errorf("workload: request count %d must be positive", s.Requests)
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 {
		return fmt.Errorf("workload: write fraction %v out of [0,1]", s.WriteFrac)
	}
	if err := s.Skew.Validate(); err != nil {
		return err
	}
	return s.Arrival.Validate()
}

// randomAddr reports whether the spec addresses randomly (base pattern or
// skew-forced).
func (s Spec) randomAddr() bool { return s.Pattern.IsRandom() || s.Skew.Kind != SkewNone }

// chain is the spec's phase list: its declared phases, or the spec itself as
// the one phase of a plain spec — the chain Stream compiles. The shape
// queries below each fold one per-phase rule over it.
func (s Spec) chain() []Spec {
	if len(s.Phases) > 0 {
		return s.Phases
	}
	return []Spec{s}
}

// anyPhase reports whether rule holds for any phase of the chain.
func (s Spec) anyPhase(rule func(ph Spec) bool) bool {
	for _, ph := range s.chain() {
		if rule(ph) {
			return true
		}
	}
	return false
}

// writes reports whether one phase can issue writes. A replayed trace is
// unknown until streamed, so it is assumed to (the expensive case).
func (s Spec) writes() bool { return s.TracePath != "" || s.Pattern.IsWrite() || s.WriteFrac > 0 }

// HasWrites reports whether the workload can issue writes.
func (s Spec) HasWrites() bool { return s.anyPhase(Spec.writes) }

// RandomWrites reports whether write traffic addresses randomly — the input
// to the WAF abstraction's steady-state model. Trace replay is classified
// as random (the conservative default; WAFOverride pins it exactly).
func (s Spec) RandomWrites() bool {
	return s.anyPhase(func(ph Spec) bool {
		if ph.TracePath != "" {
			return !ph.ReplaySeqWrites
		}
		return ph.writes() && ph.randomAddr()
	})
}

// HasReplay reports whether the spec (or any phase) replays a trace file —
// the shape whose WAF model adapts to the stream's windowed classification.
func (s Spec) HasReplay() bool { return s.anyPhase(func(ph Spec) bool { return ph.TracePath != "" }) }

// sumPhases totals one per-phase count over the chain; -1 when any phase
// replays a trace file (unknown until streamed).
func (s Spec) sumPhases(count func(ph Spec) int64) int64 {
	var total int64
	for _, ph := range s.chain() {
		if ph.TracePath != "" {
			return -1
		}
		total += count(ph)
	}
	return total
}

// TotalRequests returns the request count, summed over phases; -1 when the
// spec replays a trace file.
func (s Spec) TotalRequests() int {
	return int(s.sumPhases(func(ph Spec) int64 { return int64(ph.Requests) }))
}

// TotalBytes returns the volume of data moved, summed over phases; -1 for
// trace replay.
func (s Spec) TotalBytes() int64 {
	return s.sumPhases(func(ph Spec) int64 { return int64(ph.Requests) * ph.BlockSize })
}

// Simple reports whether the spec is a plain closed-loop synthetic pattern
// (the only shape the DDR+FLASH drain mode can measure).
func (s Spec) Simple() bool {
	return s.TracePath == "" && len(s.Phases) == 0 &&
		s.WriteFrac == 0 && s.Skew.Kind == SkewNone && !s.Arrival.Open()
}

// Describe renders a compact human label.
func (s Spec) Describe() string {
	if s.TracePath != "" {
		return fmt.Sprintf("replay:%s", s.TracePath)
	}
	if len(s.Phases) > 0 {
		parts := make([]string, len(s.Phases))
		for i, ph := range s.Phases {
			parts[i] = ph.Describe()
		}
		return strings.Join(parts, " -> ")
	}
	b := fmt.Sprintf("%v/%d", s.Pattern, s.BlockSize)
	if s.WriteFrac > 0 {
		b += fmt.Sprintf(" w%.0f%%", 100*s.WriteFrac)
	}
	if s.Skew.Kind != SkewNone {
		b += " " + s.Skew.String()
	}
	if s.Arrival.Open() {
		b += " " + s.Arrival.String()
	}
	if s.Record {
		b += " [rec]"
	}
	return b
}

// Canonical renders every field that affects the generated stream, one
// stable line per spec — the content-hash input for result caching.
func (s Spec) Canonical() string {
	var b strings.Builder
	s.canon(&b, 0)
	return b.String()
}

func (s Spec) canon(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%*sspec: %v %d %d %d %d %v frac=%g skew=%s arrival=%s trace=%q seqreplay=%v record=%v\n",
		depth*2, "", s.Pattern, s.BlockSize, s.SpanBytes, s.Requests, s.Seed,
		s.AlignLBA, s.WriteFrac, s.Skew, s.Arrival, s.TracePath, s.ReplaySeqWrites, s.Record)
	if s.TracePath != "" {
		// The path alone would serve stale cache hits after the file is
		// rewritten; fold in its size and mtime (or the stat error) so a
		// changed trace changes the content hash.
		if fi, err := os.Stat(s.TracePath); err == nil {
			fmt.Fprintf(b, "%*strace-stat: %d %d\n", depth*2, "", fi.Size(), fi.ModTime().UnixNano())
		} else {
			fmt.Fprintf(b, "%*strace-stat: %v\n", depth*2, "", err)
		}
	}
	for _, ph := range s.Phases {
		ph.canon(b, depth+1)
	}
}
