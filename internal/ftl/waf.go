// Package ftl implements the flash translation layer in the two forms the
// paper supports (§III-F): a lightweight Write-Amplification-Factor
// abstraction based on the greedy garbage-collection analysis of Hu et al.
// [5] — the form the validated SSDExplorer instance embeds — and a real
// page-mapped FTL (greedy GC, dynamic wear leveling, TRIM) for users who
// refine the platform with an actual implementation.
package ftl

import (
	"errors"
	"math"
)

// GreedyWAF returns the analytic steady-state write amplification of greedy
// garbage collection under uniform random writes, for a device whose spare
// factor (over-provisioning fraction of raw capacity) is sf.
//
// The victim block's steady-state valid fraction u satisfies
// (u - 1)/ln(u) = 1 - sf (the occupancy equals the mean valid fraction of
// blocks between the greedy victim's u and 1), and each reclaim of a block
// frees (1-u) of its pages, so WAF = 1/(1-u).
//
// This is the "reconfigurable WAF algorithm based on greedy policy [5]" the
// paper embeds in the validated instance; the page-mapped Mapper, run under
// uniform random writes, is the check on it.
func GreedyWAF(sf float64) (float64, error) {
	if sf <= 0 || sf >= 1 {
		return 0, errors.New("ftl: spare factor must be in (0, 1)")
	}
	alpha := 1 - sf
	// Solve (u-1)/ln(u) = alpha for u in (0, 1) by bisection; the left
	// side is monotone increasing in u from 0 (u->0) to 1 (u->1).
	lo, hi := 1e-12, 1-1e-12
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		v := (mid - 1) / math.Log(mid)
		if v < alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	u := (lo + hi) / 2
	return 1 / (1 - u), nil
}

// SequentialWAF is the write amplification of strictly sequential traffic:
// greedy collection always finds fully-invalid blocks, so no copies occur.
const SequentialWAF = 1.0

// Model is the WAF abstraction consumed by the platform: per user page
// write it reports how many extra page copies (GC read+program pairs) and
// block erases the FTL's background activity injects.
type Model struct {
	WAF           float64
	PagesPerBlock int

	// accumulators carry fractional background work between requests.
	copyDebt  float64
	eraseDebt float64
}

// NewModel builds a WAF model. waf must be >= 1.
func NewModel(waf float64, pagesPerBlock int) (*Model, error) {
	if waf < 1 {
		return nil, errors.New("ftl: WAF must be >= 1")
	}
	if pagesPerBlock < 1 {
		return nil, errors.New("ftl: pages per block must be >= 1")
	}
	return &Model{WAF: waf, PagesPerBlock: pagesPerBlock}, nil
}

// OnUserWrite accounts one user page write and returns the whole number of
// GC page copies and block erases to inject now. Copies are read+program
// pairs; erase count amortises to WAF/PagesPerBlock per user write (every
// physical program of a full block eventually costs one erase).
func (m *Model) OnUserWrite() (copies, erases int) {
	m.copyDebt += m.WAF - 1
	m.eraseDebt += m.WAF / float64(m.PagesPerBlock)
	copies = int(m.copyDebt)
	m.copyDebt -= float64(copies)
	erases = int(m.eraseDebt)
	m.eraseDebt -= float64(erases)
	return copies, erases
}

// ForPattern returns the WAF the abstraction applies to a workload: 1.0 for
// sequential traffic, the greedy steady-state value for random traffic.
func ForPattern(random bool, spareFactor float64) (float64, error) {
	if !random {
		return SequentialWAF, nil
	}
	return GreedyWAF(spareFactor)
}
