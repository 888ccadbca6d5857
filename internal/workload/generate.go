package workload

import (
	"fmt"
	"math"
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
)

// seedSalt matches the legacy trace.WorkloadSpec generator so the four paper
// patterns stream byte-identical requests for the same seed.
const seedSalt = 0x55de10725eed0001

// Generator is Stream for callers that only pull: the same compiled phase
// chain, typed as the Generator interface.
func (s Spec) Generator() (Generator, error) {
	st, err := s.Stream()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Stream compiles the spec into its phase chain. Every spec compiles to one:
// a phased spec chains its phases, any other spec is a chain of one phase, so
// a player reads record flags, phase indices, the live classification and
// stream errors from the Stream alone. Close releases any replayed files.
func (s Spec) Stream() (*Stream, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &Stream{curRec: true, phased: len(s.Phases) > 0}
	anyRec := false
	for i, ph := range s.chain() {
		src, err := ph.source()
		if err != nil {
			st.Close()
			if st.phased {
				err = fmt.Errorf("phase %d: %w", i, err)
			}
			return nil, err
		}
		st.srcs = append(st.srcs, src)
		st.recs = append(st.recs, ph.Record)
		anyRec = anyRec || ph.Record
	}
	if !anyRec {
		// No phase flagged: the whole scenario is the measured window.
		for i := range st.recs {
			st.recs[i] = true
		}
	}
	if st.phased || s.TracePath != "" {
		// Declared phase chains and trace replay classify their own stream:
		// the platform re-resolves the WAF abstraction from the trailing
		// write window, so a replayed trace or a seq-fill -> random-overwrite
		// scenario sees its amplification shift mid-run instead of being
		// pinned at scenario level. A plain synthetic spec keeps the model
		// its declared shape resolves.
		st.cls = NewClassifier(0)
	}
	return st, nil
}

// FromRequests compiles an explicit request list into a one-phase stream
// that records every request and classifies nothing. It is a test fixture:
// the hostif and core tests drive the host players with literal request
// lists through it, and no simulator path calls it.
func FromRequests(reqs []trace.Request) *Stream {
	return &Stream{srcs: []source{sliceSource{SliceStream: trace.NewSliceStream(reqs)}}, recs: []bool{true}, curRec: true}
}

// source opens one phase's leaf stream: a trace file or a synthetic
// generator.
func (s Spec) source() (source, error) {
	if s.TracePath != "" {
		r, err := OpenReplay(s.TracePath)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	g := &synth{spec: s, rng: sim.NewRNG(s.Seed ^ seedSalt), onRemainUS: s.Arrival.OnMS * 1000}
	if s.Skew.Kind == SkewZipf {
		g.zipf = newZipf(s.SpanBytes/s.BlockSize, s.Skew.Theta)
	}
	return g, nil
}

// Generate materialises the whole stream as a slice — a convenience for
// trace-file writing and tests; the platform itself always streams.
func (s Spec) Generate() ([]trace.Request, error) {
	st, err := s.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reqs := make([]trace.Request, 0, max(s.TotalRequests(), 0))
	for req, ok := st.Next(); ok; req, ok = st.Next() {
		reqs = append(reqs, req)
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// source is one phase of a Stream: a Generator that may hold an external
// resource (Close) and may end early on a read or parse error (Err).
type source interface {
	Generator
	Err() error
	Close() error
}

// infallible is the Err and Close of in-memory sources.
type infallible struct{}

func (infallible) Err() error   { return nil }
func (infallible) Close() error { return nil }

// sliceSource is an in-memory request list as a phase source.
type sliceSource struct {
	*trace.SliceStream
	infallible
}

// synth streams one synthetic workload: base pattern, optional direction
// mix, address skew and arrival process. State is O(1).
type synth struct {
	infallible
	spec Spec
	rng  *sim.RNG
	zipf *zipf

	emitted int
	seq     int64 // sequential block cursor

	// Open-loop arrival clock, microseconds.
	clockUS    float64
	onRemainUS float64
}

// Next implements Generator. Draw order is fixed (direction, address,
// arrival) so streams are deterministic functions of the spec.
func (g *synth) Next() (trace.Request, bool) {
	if g.emitted >= g.spec.Requests {
		return trace.Request{}, false
	}
	g.emitted++
	blocks := g.spec.SpanBytes / g.spec.BlockSize
	sectorsPerBlock := g.spec.BlockSize / trace.SectorSize

	op := trace.OpRead
	if g.spec.Pattern.IsWrite() {
		op = trace.OpWrite
	}
	if g.spec.WriteFrac > 0 {
		op = trace.OpRead
		if g.rng.Bool(g.spec.WriteFrac) {
			op = trace.OpWrite
		}
	}

	var blk int64
	switch {
	case g.spec.Skew.Kind == SkewZipf:
		blk = g.zipf.next(g.rng)
	case g.spec.Skew.Kind == SkewHotspot:
		blk = g.hotspotBlock(blocks)
	case g.spec.Pattern.IsRandom():
		blk = g.rng.Int63n(blocks)
	default:
		blk = g.seq % blocks
		g.seq++
	}

	req := trace.Request{Op: op, LBA: blk * sectorsPerBlock, Bytes: g.spec.BlockSize}
	if g.spec.Arrival.Open() {
		req.ArrivalUS = g.nextArrivalUS()
	}
	return req, true
}

// hotspotBlock draws from the two-region hotspot model.
func (g *synth) hotspotBlock(blocks int64) int64 {
	hot := int64(float64(blocks) * g.spec.Skew.HotFrac)
	if hot < 1 {
		hot = 1
	}
	if hot >= blocks {
		return g.rng.Int63n(blocks)
	}
	if g.rng.Bool(g.spec.Skew.HotProb) {
		return g.rng.Int63n(hot)
	}
	return hot + g.rng.Int63n(blocks-hot)
}

// nextArrivalUS advances the open-loop clock by one inter-arrival gap.
func (g *synth) nextArrivalUS() float64 {
	a := g.spec.Arrival
	meanUS := 1e6 / a.RateIOPS
	gap := -math.Log(1-g.rng.Float64()) * meanUS
	if a.Kind == ArrivalOnOff {
		// Consume ON time; arrivals falling past the window spill over the
		// OFF silence into the next burst.
		for gap > g.onRemainUS {
			gap -= g.onRemainUS
			g.clockUS += g.onRemainUS + a.OffMS*1000
			g.onRemainUS = a.OnMS * 1000
		}
		g.onRemainUS -= gap
	}
	g.clockUS += gap
	return g.clockUS
}

// zipf draws zipfian-distributed ranks over [0, n) with exponent theta and
// scrambles them over the span (YCSB's scrambled-zipfian construction), so
// the popular blocks are scattered rather than clustered at LBA 0.
type zipf struct {
	n            int64
	theta        float64
	alpha, eta   float64
	zetan, zeta2 float64
	halfPowTheta float64
}

// zetaCut bounds the exact harmonic sum; beyond it the tail is integrated
// analytically, keeping construction O(min(n, zetaCut)).
const zetaCut = 1 << 20

func newZipf(n int64, theta float64) *zipf {
	if n < 1 {
		n = 1
	}
	z := &zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

// zeta computes sum_{i=1..n} i^-theta, switching to the integral
// approximation past zetaCut.
func zeta(n int64, theta float64) float64 {
	m := n
	if m > zetaCut {
		m = zetaCut
	}
	sum := 0.0
	for i := int64(1); i <= m; i++ {
		sum += math.Pow(float64(i), -theta)
	}
	if n > m {
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// next draws one scrambled rank.
func (z *zipf) next(rng *sim.RNG) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.halfPowTheta:
		rank = 1
	default:
		rank = int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return int64(scramble(uint64(rank)) % uint64(z.n))
}

// scramble is the splitmix64 finalizer: a fixed bijective hash spreading
// zipf ranks over the block space deterministically.
func scramble(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// Stream is the one compiled form of every workload: a chain of phase
// sources played in order. Non-zero arrival times are offset so each phase's
// open-loop clock continues where the previous one stopped: after an
// open-loop phase the offset is that phase's last arrival, and after a
// closed-loop phase (arrivals all 0, paced by the device) it is the
// simulation clock at the boundary, when one was wired via SetClock.
type Stream struct {
	srcs     []source
	recs     []bool // per-phase record flag (all true when none was set)
	phased   bool   // the spec declared phases
	curRec   bool   // record flag of the phase of the last returned request
	curIdx   int    // phase index of the last returned request
	idx      int
	baseUS   float64        // accumulated arrival offset from completed phases
	phaseMax float64        // max raw arrival seen in the current phase
	nowUS    func() float64 // simulation clock; nil outside a platform run
	cls      *Classifier    // live windowed classification; nil when not classifying
}

// SetClock wires the simulation clock (in microseconds), so open-loop
// arrival clocks rebase at phase boundaries that follow device-paced
// (closed-loop) phases, whose end time is unknowable at generation time.
func (p *Stream) SetClock(now func() float64) { p.nowUS = now }

// Recording reports whether the last request returned by Next belongs to a
// measured phase.
func (p *Stream) Recording() bool { return p.curRec }

// Phase reports the phase of the last request returned by Next (0-based,
// monotonic).
func (p *Stream) Phase() int { return p.curIdx }

// Phased reports whether the spec declared phases. A plain spec's one-phase
// chain reports false, so players skip per-phase accounting for it.
func (p *Stream) Phased() bool { return p.phased }

// Classification is the live windowed classification of the portion of the
// stream generated so far (nil for plain synthetic specs and request lists),
// so the platform can adapt the WAF abstraction while the stream plays.
func (p *Stream) Classification() *Classifier { return p.cls }

// Next implements Generator.
func (p *Stream) Next() (trace.Request, bool) {
	for p.idx < len(p.srcs) {
		req, ok := p.srcs[p.idx].Next()
		if ok {
			p.curRec = p.recs[p.idx]
			p.curIdx = p.idx
			if req.ArrivalUS > p.phaseMax {
				p.phaseMax = req.ArrivalUS
			}
			if req.ArrivalUS > 0 {
				req.ArrivalUS += p.baseUS
			}
			if p.cls != nil {
				p.cls.Observe(req)
			}
			return req, true
		}
		if p.srcs[p.idx].Err() != nil {
			// A failed phase ends the chain: Err reports why, and the
			// phases after it never play.
			return trace.Request{}, false
		}
		p.idx++
		closed := p.phaseMax == 0
		p.baseUS += p.phaseMax
		p.phaseMax = 0
		if closed && p.nowUS != nil {
			// The boundary is crossed lazily, when the player pulls the next
			// phase's first request — i.e. at the moment the previous phase
			// finished issuing. A closed-loop phase contributes no arrival
			// offset, so the simulation clock is the phase's real end. After
			// an open-loop phase the declared arrival timeline stands: any
			// gap between it and the clock is backlog that must keep
			// queueing into the next phase, not be erased.
			if now := p.nowUS(); now > p.baseUS {
				p.baseUS = now
			}
		}
	}
	return trace.Request{}, false
}

// Close releases any replayed files.
func (p *Stream) Close() error {
	var first error
	for _, src := range p.srcs {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Err surfaces the first error any replay phase hit.
func (p *Stream) Err() error {
	for _, src := range p.srcs {
		if err := src.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Replay streams a trace file — file replay is just another phase source.
// Parse errors stop the stream and are reported by Err (the platform checks
// after draining). The file's dialect (canonical, blktrace text, MSR
// Cambridge CSV) is sniffed from its first lines, so foreign traces replay
// with no conversion step.
type Replay struct {
	f      *os.File
	r      *trace.Reader
	format trace.Format
	err    error
}

// OpenReplay opens path for streaming replay, auto-detecting the trace
// format.
func OpenReplay(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	r, format := trace.ParseReaderAuto(f)
	return &Replay{f: f, r: r, format: format}, nil
}

// Format reports the detected trace dialect.
func (r *Replay) Format() trace.Format { return r.format }

// Next implements Generator.
func (r *Replay) Next() (trace.Request, bool) {
	if r.err != nil {
		return trace.Request{}, false
	}
	req, ok := r.r.Next()
	if !ok {
		r.err = r.r.Err()
	}
	return req, ok
}

// Err returns the parse or I/O error that ended the stream, if any.
func (r *Replay) Err() error { return r.err }

// Close releases the underlying file.
func (r *Replay) Close() error { return r.f.Close() }

// TraceInfo summarises a streaming pre-scan of a trace file.
type TraceInfo struct {
	Requests     int
	Writes       int
	RandomWrites bool // >50% of writes break sequentiality (the WAF rule)
	TotalBytes   int64
}

// ScanTrace streams through a trace file once (constant memory) and
// classifies its write-address randomness (the WAF sequentiality rule: >50%
// of writes breaking consecutive order). It is the one-shot form of the
// incremental Classifier (and is a loop over one, so the two can never
// disagree); streaming replay classifies during the run instead. Callers
// feed the result into Spec{TracePath, ReplaySeqWrites: !info.RandomWrites}.
func ScanTrace(path string) (TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	r := trace.ParseReader(f)
	c := NewClassifier(0)
	for req, ok := r.Next(); ok; req, ok = r.Next() {
		c.Observe(req)
	}
	return c.Info(), r.Err()
}
