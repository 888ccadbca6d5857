package nand

// RBERAt returns the raw bit error rate of a block at its current wear.
func (d *Die) RBERAt(planeIdx, blockIdx int) float64 {
	return d.tim.RBER(d.wear(d.block(planeIdx, blockIdx)))
}
