package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format identifies an on-disk trace dialect. Beyond the canonical format,
// the importers adapt common public trace formats as thin line decoders
// over the same streaming Reader, so replaying an MSR Cambridge volume or a
// blkparse dump costs the same constant memory as a native trace.
type Format uint8

// Supported trace formats.
const (
	// FormatCanonical is the native "<arrival_us> <op> <lba> <bytes>" text.
	FormatCanonical Format = iota
	// FormatBlktrace is blkparse's default text output: queue ('Q') events
	// are replayed, all other events are skipped, and timestamps rebase to
	// the first replayed event.
	FormatBlktrace
	// FormatMSR is the MSR Cambridge block-trace CSV:
	// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime with the
	// timestamp in Windows 100 ns ticks, rebased to the first record.
	FormatMSR

	numFormats
)

// formatNames indexes Format.String.
var formatNames = [numFormats]string{"canonical", "blktrace", "msr"}

// String names the format.
func (f Format) String() string {
	if f < numFormats {
		return formatNames[f]
	}
	return "?"
}

// ParseReaderFormat wraps r in a streaming parser for the given dialect.
func ParseReaderFormat(r io.Reader, f Format) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	rd := &Reader{sc: sc}
	switch f {
	case FormatBlktrace:
		rd.parse = newBlktraceParser()
	case FormatMSR:
		rd.parse = newMSRParser()
	default:
		rd.parse = parseCanonical
	}
	return rd
}

// ParseReaderAuto sniffs the dialect from the stream's first lines and
// returns a streaming parser for it plus the detected format. Detection
// reads ahead through a buffer, so the stream need not be seekable.
func ParseReaderAuto(r io.Reader) (*Reader, Format) {
	br := bufio.NewReaderSize(r, 64<<10)
	sample, _ := br.Peek(64 << 10) // whatever is available; short files are fine
	f := DetectFormat(sample)
	return ParseReaderFormat(br, f), f
}

// DetectFormat classifies a trace sample by its first data line. Unknown
// shapes fall back to canonical, whose parser reports precise line errors.
func DetectFormat(sample []byte) Format {
	for _, line := range strings.Split(string(sample), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		// MSR Cambridge lines are pure CSV: one whitespace-free field with
		// >= 6 comma-separated columns and Read/Write in the fourth.
		if len(fields) == 1 && strings.Count(line, ",") >= 5 {
			cols := strings.Split(line, ",")
			switch strings.ToLower(cols[3]) {
			case "read", "write":
				return FormatMSR
			}
		}
		// blkparse rows lead with the "maj,min cpu seq time pid action"
		// prefix and carry at least 7 columns.
		if len(fields) >= 7 && strings.Contains(fields[0], ",") {
			if _, err := strconv.ParseFloat(fields[3], 64); err == nil {
				return FormatBlktrace
			}
		}
		return FormatCanonical
	}
	return FormatCanonical
}

// newBlktraceParser returns a decoder for blkparse text: only 'Q' (queue
// insertion) events replay — they are the moment the host issued the I/O —
// and everything else (dispatch, completion, plug, ...) is skipped. Format
// per row: "maj,min cpu seq time pid action rwbs sector + sectors [proc]".
// Timestamps (seconds) rebase to the first replayed event.
func newBlktraceParser() func(string, int) (Request, bool, error) {
	firstSec, haveFirst := 0.0, false
	return func(line string, lineno int) (Request, bool, error) {
		f := strings.Fields(line)
		if len(f) < 7 || !strings.Contains(f[0], ",") {
			// blkparse appends summary sections ("CPU0 (sda):", "Total
			// (sda):", ...) after the event rows; stop parsing quietly.
			return Request{}, true, nil
		}
		if f[5] != "Q" {
			return Request{}, true, nil
		}
		rwbs := f[6]
		var op Op
		switch {
		case strings.ContainsAny(rwbs, "Dd"):
			op = OpTrim
		case strings.ContainsAny(rwbs, "Ww"):
			op = OpWrite
		case strings.ContainsAny(rwbs, "Rr"):
			op = OpRead
		case strings.ContainsAny(rwbs, "Ff"):
			op = OpFlush
		default:
			return Request{}, true, nil // 'N' and friends carry no data
		}
		sec, err := strconv.ParseFloat(f[3], 64)
		if err != nil || sec < 0 {
			return Request{}, false, fmt.Errorf("trace: line %d: bad blktrace timestamp %q", lineno, f[3])
		}
		if len(f) < 8 {
			return Request{}, false, fmt.Errorf("trace: line %d: truncated blktrace line", lineno)
		}
		lba, err := strconv.ParseInt(f[7], 10, 64)
		if err != nil || lba < 0 {
			return Request{}, false, fmt.Errorf("trace: line %d: bad blktrace sector %q", lineno, f[7])
		}
		var sectors int64
		if len(f) >= 10 && f[8] == "+" {
			sectors, err = strconv.ParseInt(f[9], 10, 64)
			if err != nil || sectors < 0 {
				return Request{}, false, fmt.Errorf("trace: line %d: bad blktrace sector count %q", lineno, f[9])
			}
		}
		if !haveFirst {
			firstSec, haveFirst = sec, true
		}
		return Request{
			ArrivalUS: (sec - firstSec) * 1e6,
			Op:        op,
			LBA:       lba,
			Bytes:     sectors * SectorSize,
		}, false, nil
	}
}

// newMSRParser returns a decoder for the MSR Cambridge enterprise traces:
// "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime" with the
// timestamp in Windows FILETIME ticks (100 ns), the offset and size in
// bytes. Ticks rebase to the first record; byte offsets round down to the
// containing sector.
func newMSRParser() func(string, int) (Request, bool, error) {
	var firstTicks int64
	haveFirst := false
	return func(line string, lineno int) (Request, bool, error) {
		cols := strings.Split(line, ",")
		if len(cols) < 6 {
			return Request{}, false, fmt.Errorf("trace: line %d: want >= 6 MSR columns, got %d", lineno, len(cols))
		}
		ticks, err := strconv.ParseInt(strings.TrimSpace(cols[0]), 10, 64)
		if err != nil || ticks < 0 {
			return Request{}, false, fmt.Errorf("trace: line %d: bad MSR timestamp %q", lineno, cols[0])
		}
		var op Op
		switch strings.ToLower(strings.TrimSpace(cols[3])) {
		case "read":
			op = OpRead
		case "write":
			op = OpWrite
		default:
			return Request{}, false, fmt.Errorf("trace: line %d: bad MSR op %q", lineno, cols[3])
		}
		offset, err := strconv.ParseInt(strings.TrimSpace(cols[4]), 10, 64)
		if err != nil || offset < 0 {
			return Request{}, false, fmt.Errorf("trace: line %d: bad MSR offset %q", lineno, cols[4])
		}
		size, err := strconv.ParseInt(strings.TrimSpace(cols[5]), 10, 64)
		if err != nil || size < 0 {
			return Request{}, false, fmt.Errorf("trace: line %d: bad MSR size %q", lineno, cols[5])
		}
		if !haveFirst {
			firstTicks, haveFirst = ticks, true
		}
		return Request{
			ArrivalUS: float64(ticks-firstTicks) / 10, // 100 ns ticks -> µs
			Op:        op,
			LBA:       offset / SectorSize,
			Bytes:     size,
		}, false, nil
	}
}
