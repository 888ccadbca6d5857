package sim

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) + k.lane.Len() }
