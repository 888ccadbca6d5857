// Package sim is a fixture stand-in for the simulator's event kernel: just
// enough surface (Kernel.Schedule, Kernel.At, Domain.Post) for the simclock
// analyzer's delay-sink detection, which matches on the receiver type name
// and package name.
package sim

// Time is simulated time.
type Time int64

// Kernel is the fixture event kernel.
type Kernel struct{ now Time }

// Schedule runs fn after delay.
func (k *Kernel) Schedule(delay Time, fn func()) {}

// At runs fn at absolute time t.
func (k *Kernel) At(t Time, fn func()) {}

// Domain is the fixture clock domain.
type Domain struct{ K *Kernel }

// Post schedules fn on the target domain after delay.
func (d *Domain) Post(to *Domain, delay Time, fn func()) {}
