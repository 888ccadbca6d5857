package ftl

// MaxPE returns the highest erase count across blocks (wear-leveling metric).
func (m *Mapper) MaxPE() int {
	max := 0
	for u := range m.pe {
		for _, c := range m.pe[u] {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// MinPE returns the lowest erase count across blocks.
func (m *Mapper) MinPE() int {
	min := int(^uint(0) >> 1)
	for u := range m.pe {
		for _, c := range m.pe[u] {
			if c < min {
				min = c
			}
		}
	}
	return min
}
