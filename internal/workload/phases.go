package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// ParsePhases decodes a compact multi-phase scenario description into a
// phased Spec. Phases are semicolon-separated; each phase is
//
//	<requests>x<pattern>[,<option>...]
//
// where pattern is one of the IOZone names (SW, SR, RW, RR) and options are
//
//	block=<size>    request payload (accepts k/m/g binary suffixes)
//	span=<size>     addressable span
//	mix=<frac>      write fraction for mixed traffic
//	skew=<spec>     uniform | zipf:<theta> | hotspot:<frac>:<prob>
//	arrival=<spec>  closed | poisson:<iops> | onoff:<iops>:<on>:<off>
//	seed=<n>        generator seed
//	record          flag the phase as the measured window
//
// A phase may instead replay a recorded trace:
//
//	replay:<path>[,span=<size>][,seqwrites][,record]
//
// streams the file (canonical, blktrace text or MSR CSV, auto-detected)
// through the same pull-based path; span declares the addressed extent
// (a tenant's namespace size), seqwrites declares sequential write traffic
// up front instead of having ScanTrace discover it.
//
// base supplies the defaults for block, span and seed of every phase.
// Example: "4000xSW;8000xRR,skew=zipf:0.9,record" preconditions with 4000
// sequential writes, then measures 8000 zipfian random reads.
func ParsePhases(s string, base Spec) (Spec, error) {
	if base.BlockSize == 0 {
		base.BlockSize = DefaultBlockSize
	}
	var phases []Spec
	for i, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			return Spec{}, fmt.Errorf("workload: phase %d is empty in %q", i, s)
		}
		ph, err := parsePhase(field, base)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		phases = append(phases, ph)
	}
	out := Spec{Phases: phases}
	return out, out.Validate()
}

// parsePhase decodes one "<requests>x<pattern>[,opt...]" or
// "replay:<path>[,opt...]" field.
func parsePhase(field string, base Spec) (Spec, error) {
	parts := strings.Split(field, ",")
	head := strings.TrimSpace(parts[0])
	if rest, ok := strings.CutPrefix(head, "replay:"); ok {
		return parseReplayPhase(rest, parts[1:], base)
	}
	x := strings.IndexAny(head, "xX")
	if x <= 0 || x == len(head)-1 {
		return Spec{}, fmt.Errorf("want <requests>x<pattern>, got %q", head)
	}
	reqs, err := strconv.Atoi(head[:x])
	if err != nil {
		return Spec{}, fmt.Errorf("bad request count %q", head[:x])
	}
	pat, err := trace.ParsePattern(head[x+1:])
	if err != nil {
		return Spec{}, err
	}
	ph := Spec{
		Pattern:   pat,
		BlockSize: base.BlockSize,
		SpanBytes: base.SpanBytes,
		Requests:  reqs,
		Seed:      base.Seed,
	}
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		key, val := opt, ""
		if eq := strings.IndexByte(opt, '='); eq >= 0 {
			key, val = opt[:eq], opt[eq+1:]
		}
		switch strings.ToLower(key) {
		case "record":
			if val != "" {
				return Spec{}, fmt.Errorf("record takes no value, got %q", opt)
			}
			ph.Record = true
		case "block":
			if ph.BlockSize, err = parseSize(val); err != nil {
				return Spec{}, fmt.Errorf("block: %w", err)
			}
		case "span":
			if ph.SpanBytes, err = parseSize(val); err != nil {
				return Spec{}, fmt.Errorf("span: %w", err)
			}
		case "mix":
			if ph.WriteFrac, err = strconv.ParseFloat(val, 64); err != nil {
				return Spec{}, fmt.Errorf("bad mix %q", val)
			}
		case "skew":
			if ph.Skew, err = ParseSkew(val); err != nil {
				return Spec{}, err
			}
		case "arrival":
			if ph.Arrival, err = ParseArrival(val); err != nil {
				return Spec{}, err
			}
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("bad seed %q", val)
			}
			ph.Seed = n
		default:
			return Spec{}, fmt.Errorf("unknown phase option %q", opt)
		}
	}
	return ph, nil
}

// parseReplayPhase decodes a "replay:<path>[,opt...]" field into a trace-
// replay Spec. The replay options are span=<size> (the declared span; for a
// tenant it sizes the namespace), seqwrites (the write-shape declaration
// ScanTrace would otherwise have to discover) and record.
func parseReplayPhase(path string, opts []string, base Spec) (Spec, error) {
	if path == "" {
		return Spec{}, fmt.Errorf("replay: missing trace path")
	}
	ph := Spec{TracePath: path, SpanBytes: base.SpanBytes, BlockSize: base.BlockSize}
	var err error
	for _, opt := range opts {
		opt = strings.TrimSpace(opt)
		key, val := opt, ""
		if eq := strings.IndexByte(opt, '='); eq >= 0 {
			key, val = opt[:eq], opt[eq+1:]
		}
		switch strings.ToLower(key) {
		case "span":
			if ph.SpanBytes, err = parseSize(val); err != nil {
				return Spec{}, fmt.Errorf("span: %w", err)
			}
		case "seqwrites":
			if val != "" {
				return Spec{}, fmt.Errorf("seqwrites takes no value, got %q", opt)
			}
			ph.ReplaySeqWrites = true
		case "record":
			if val != "" {
				return Spec{}, fmt.Errorf("record takes no value, got %q", opt)
			}
			ph.Record = true
		default:
			return Spec{}, fmt.Errorf("unknown replay option %q", opt)
		}
	}
	return ph, nil
}

// parseSize decodes a byte count with an optional binary k/m/g suffix.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	body := s
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, body = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, body = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, body = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(body, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if mult > 1 && v > (1<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v * mult, nil
}

// FormatPhases renders a phased Spec back into the ParsePhases syntax (every
// parameter explicit, so the output is self-contained). It is the inverse
// used by tests to prove the syntax round-trips.
func FormatPhases(s Spec) string {
	if len(s.Phases) == 0 {
		s = Spec{Phases: []Spec{s}}
	}
	var b strings.Builder
	for i, ph := range s.Phases {
		if i > 0 {
			b.WriteByte(';')
		}
		if ph.TracePath != "" {
			fmt.Fprintf(&b, "replay:%s", ph.TracePath)
			if ph.SpanBytes > 0 {
				fmt.Fprintf(&b, ",span=%d", ph.SpanBytes)
			}
			if ph.ReplaySeqWrites {
				b.WriteString(",seqwrites")
			}
			if ph.Record {
				b.WriteString(",record")
			}
			continue
		}
		fmt.Fprintf(&b, "%dx%v,block=%d,span=%d,seed=%d", ph.Requests, ph.Pattern, ph.BlockSize, ph.SpanBytes, ph.Seed)
		if ph.WriteFrac != 0 {
			fmt.Fprintf(&b, ",mix=%g", ph.WriteFrac)
		}
		if ph.Skew.Kind != SkewNone {
			fmt.Fprintf(&b, ",skew=%s", ph.Skew)
		}
		if ph.Arrival.Open() {
			fmt.Fprintf(&b, ",arrival=%s", ph.Arrival)
		}
		if ph.Record {
			b.WriteString(",record")
		}
	}
	return b.String()
}
