package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one host-time interval the benchmark measured around a call into
// the simulator: microseconds since the run's shared epoch, on one worker
// lane of one workload process.
type span struct {
	Name   string  `json:"name"`
	Cat    string  `json:"cat"`
	TS     float64 `json:"ts"`
	Dur    float64 `json:"dur"`
	Lane   int     `json:"lane"`
	Parent string  `json:"parent,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs pay no tracing cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	lanes []bool // lanes[i] is true while lane i+1 holds an open dse span
}

// begin opens a span on lane 0 and returns the function that closes it.
func (r *recorder) begin(name, cat, parent string) func() {
	return r.beginOn(name, cat, parent, 0)
}

func (r *recorder) beginOn(name, cat, parent string, lane int) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		r.mu.Lock()
		r.spans = append(r.spans, span{
			Name: name, Cat: cat, Lane: lane, Parent: parent,
			TS:  float64(start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
		})
		r.mu.Unlock()
	}
}

// beginWorker opens a span on the lowest free worker lane (1, 2, ...), so
// concurrent dse evaluations land on one trace thread per runner worker.
func (r *recorder) beginWorker(name, cat, parent string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	lane := 0
	for lane < len(r.lanes) && r.lanes[lane] {
		lane++
	}
	if lane == len(r.lanes) {
		r.lanes = append(r.lanes, false)
	}
	r.lanes[lane] = true
	r.mu.Unlock()
	end := r.beginOn(name, cat, parent, lane+1)
	return func() {
		end()
		r.mu.Lock()
		r.lanes[lane] = false
		r.mu.Unlock()
	}
}

// processSpans is what one workload process recorded.
type processSpans struct {
	Workload string
	Spans    []span
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (one process
// per workload, one thread per worker lane), which Perfetto opens.
func writeChromeTrace(path, runID string, procs []processSpans) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, p := range procs {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": p.Workload}})
		lanes := map[int]bool{}
		for _, s := range p.Spans {
			if !lanes[s.Lane] {
				lanes[s.Lane] = true
				name := "main"
				if s.Lane > 0 {
					name = fmt.Sprintf("worker %d", s.Lane)
				}
				events = append(events, event{Name: "thread_name", Ph: "M", PID: pid, TID: s.Lane,
					Args: map[string]any{"name": name}})
			}
			args := map[string]any{"run": runID}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			events = append(events, event{Name: s.Name, Cat: s.Cat, Ph: "X", TS: s.TS, Dur: s.Dur,
				PID: pid, TID: s.Lane, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
