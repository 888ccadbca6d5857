package amba

import "repro/internal/sim"

// TransferTime reports the uncontended duration of moving n bytes: the
// analytic figure the arbitration tests compare simulated transfers with.
func (b *Bus) TransferTime(n int64) sim.Time {
	var total int64
	remaining := n
	for remaining > 0 {
		c := remaining
		if c > b.cfg.MaxGrantBytes {
			c = b.cfg.MaxGrantBytes
		}
		total += b.cfg.grantCycles(c)
		remaining -= c
	}
	return b.clk.Cycles(total)
}
