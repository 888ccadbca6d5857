package sim

// Pending reports the number of queued events, a pending chain counting as
// one.
func (k *Kernel) Pending() int {
	n := len(k.queue) + k.lane.Len()
	if k.chain.fn != nil {
		n++
	}
	return n
}
