// Package compress models the SSD's data compressor as the parametric
// time-delay component the paper describes (§III-D1): performance is fully
// characterised by a compression ratio and an output bandwidth (a hardware
// GZIP engine), and the block can be placed either between the host
// interface and the DRAM buffer ("host interface compressor") or between the
// DRAM buffer and the channel/way controller ("channel/way compressor").
// Compression reduces the data written to NAND, which both raises effective
// write bandwidth and lowers wear (the paper's motivation, ref [21]).
package compress

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Placement locates the compressor in the data path.
type Placement uint8

// Compressor placements (paper Fig. 1 shows both).
const (
	None Placement = iota
	HostInterface
	ChannelWay
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case None:
		return "none"
	case HostInterface:
		return "host-interface"
	case ChannelWay:
		return "channel-way"
	}
	return "?"
}

// ParsePlacement decodes a placement name.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "none", "":
		return None, nil
	case "host", "host-interface":
		return HostInterface, nil
	case "channel", "channel-way":
		return ChannelWay, nil
	}
	return None, fmt.Errorf("compress: unknown placement %q", s)
}

// Config parameterises the engine.
type Config struct {
	Placement Placement
	Ratio     float64 // output bytes / input bytes (0 < Ratio <= 1)
	MBps      float64 // engine throughput (hardware GZIP-class)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Placement == None {
		return nil
	}
	if c.Ratio <= 0 || c.Ratio > 1 {
		return fmt.Errorf("compress: ratio %v out of (0, 1]", c.Ratio)
	}
	if c.MBps <= 0 {
		return errors.New("compress: non-positive bandwidth")
	}
	return nil
}

// Engine is the shared compression resource: requests serialise on it and
// each costs input/bandwidth of engine time.
type Engine struct {
	cfg Config
	srv *sim.Server

	BytesIn  uint64
	BytesOut uint64
}

// NewEngine builds an engine; a None placement returns a pass-through.
func NewEngine(k *sim.Kernel, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, srv: sim.NewServer(k, nil, "gzip")}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Enabled reports whether the engine is in the data path.
func (e *Engine) Enabled() bool { return e.cfg.Placement != None }

// OutputBytes returns the post-compression size of n input bytes, rounded up
// to 512-byte granularity (flash pages store whole sectors).
func (e *Engine) OutputBytes(n int64) int64 {
	if !e.Enabled() {
		return n
	}
	out := int64(math.Ceil(float64(n) * e.cfg.Ratio))
	const sector = 512
	if out%sector != 0 {
		out += sector - out%sector
	}
	if out > n {
		out = n // incompressible floor
	}
	return out
}

// latency is the engine occupancy for n input bytes.
func (e *Engine) latency(n int64) sim.Time {
	return sim.Time(float64(n) / (e.cfg.MBps * 1e6) * float64(sim.Second))
}

// Process runs n bytes through the engine and returns the output size,
// which is known at once (OutputBytes); done fires when the engine has
// finished with them. Pass-through when disabled (done fires immediately via
// the kernel to keep causality uniform).
func (e *Engine) Process(k *sim.Kernel, n int64, done func()) int64 {
	if n <= 0 {
		if done != nil {
			k.Schedule(0, done)
		}
		return 0
	}
	out := e.OutputBytes(n)
	e.Account(n, out)
	e.Occupy(k, n, done)
	return out
}

// Occupy charges engine time for n input bytes without output accounting —
// used when the caller has already sized the output via OutputBytes.
func (e *Engine) Occupy(k *sim.Kernel, n int64, done func()) {
	if !e.Enabled() || n <= 0 {
		if done != nil {
			k.Schedule(0, done)
		}
		return
	}
	e.srv.Acquire(e.latency(n), func(_, end sim.Time) {
		if done != nil {
			k.At(end, done)
		}
	})
}

// Account records input/output volume (pairs with Occupy).
func (e *Engine) Account(in, out int64) {
	e.BytesIn += uint64(in)
	e.BytesOut += uint64(out)
}
