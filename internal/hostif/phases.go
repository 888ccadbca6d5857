package hostif

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// phaseRingSize bounds how many per-phase windows a player (or a queue)
// retains. Phases complete in order, so when a scenario exceeds the ring the
// oldest phases are dropped — the recent ones are the interesting ones, and
// memory stays fixed no matter how many phases a stream declares.
const phaseRingSize = 16

// phaseWindow accumulates one workload phase's measurements. Unlike the
// measured-window recorder, phase windows never reset: every completing
// command lands in the window of the phase it was pulled in (straggler
// completions from a phase the device left are still attributed correctly),
// recorded and unrecorded phases alike. That is what lets a
// precondition -> measure scenario report the precondition's stage breakdown
// too, instead of only the last window's.
type phaseWindow struct {
	idx      int
	recorded bool
	lat      workload.Collector
	rec      telemetry.Recorder
}

// observePhase folds one completing command into its phase's window,
// returning the (possibly grown) ring. The ring is kept sorted by phase
// index and insertion is position-independent: completions may arrive out
// of phase order (a write parked in a partial multi-plane batch can outlive
// the next phase's fast reads), and even a phase's FIRST completion may
// arrive after a later phase opened its window. Only completions for a
// phase older than everything a full ring retains are dropped.
func observePhase(wins []phaseWindow, cmd *Command, end sim.Time) []phaseWindow {
	// Phases complete roughly in order: scan from the most recent. pos
	// tracks the sorted insertion point in case the phase is absent.
	pos, phase := len(wins), int(cmd.Phase)
	for i := len(wins) - 1; i >= 0; i-- {
		if wins[i].idx == phase {
			wins[i].lat.Record(cmd.Req.Op, end-cmd.QueuedAt)
			wins[i].rec.Observe(&cmd.Span)
			wins[i].recorded = wins[i].recorded || cmd.Record
			return wins
		}
		if wins[i].idx < phase {
			break
		}
		pos = i
	}
	if len(wins) == phaseRingSize {
		if pos == 0 {
			return wins // older than everything a full ring retains
		}
		copy(wins, wins[1:]) // evict the oldest phase
		wins = wins[:phaseRingSize-1]
		pos--
	}
	w := phaseWindow{idx: phase, recorded: cmd.Record}
	w.lat.Record(cmd.Req.Op, end-cmd.QueuedAt)
	w.rec.Observe(&cmd.Span)
	wins = append(wins, phaseWindow{})
	copy(wins[pos+1:], wins[pos:])
	wins[pos] = w
	return wins
}

// phaseProfiles renders a ring as exported profiles.
func phaseProfiles(wins []phaseWindow) []telemetry.PhaseProfile {
	if len(wins) == 0 {
		return nil
	}
	out := make([]telemetry.PhaseProfile, len(wins))
	for i := range wins {
		all := wins[i].lat.All()
		out[i] = telemetry.PhaseProfile{
			Index:    wins[i].idx,
			Recorded: wins[i].recorded,
			Ops:      all.Ops,
			All:      all,
			Stages:   wins[i].rec.Breakdown(),
		}
	}
	return out
}

// QueuePhaseProfiles reports queue q's per-phase latency/stage profiles
// (one entry per workload phase seen, oldest first; empty until a command
// completes or when the queue's stream has no phase structure). Unlike
// StageBreakdown, the profiles cover unrecorded phases too and survive
// measured-window resets. A single stream's profiles are queue 0's.
func (i *Interface) QueuePhaseProfiles(q int) []telemetry.PhaseProfile {
	return phaseProfiles(i.qs[q].phaseWins)
}
