package telemetry

// Backlog detects open-loop saturation. When offered load exceeds device
// capacity the trace player falls ever further behind the declared arrival
// timeline: each request's lag (pull time minus declared arrival) grows
// roughly linearly with simulated time, and the reported latencies are a
// function of run length rather than of the device. The detector fits
// lag = a + b·t by least squares over every open-loop arrival, with t the
// declared arrival time; the slope b is dimensionless (seconds of lag per
// second of arrival timeline) and approaches λ/μ - 1 for offered rate λ
// above service rate μ. A run is declared saturated when the slope exceeds
// SatGrowthThreshold with at least MinSatSamples arrivals observed.
type Backlog struct {
	n                        float64
	sumX, sumY, sumXX, sumXY float64 // x: arrival (s), y: lag (s)
}

// SatGrowthThreshold is the backlog growth rate above which a run is
// declared saturated. Stable queues hover near zero growth (an at-capacity
// run random-walks just above it); a meaningfully overloaded device grows
// its backlog at a large fraction of real time.
const SatGrowthThreshold = 0.05

// MinSatSamples is the minimum number of open-loop arrivals before the
// regression is trusted.
const MinSatSamples = 64

// Observe records one open-loop arrival: its declared arrival time and the
// lag with which the trace player actually pulled it (0 when on time).
func (b *Backlog) Observe(arrivalUS, lagUS float64) {
	if lagUS < 0 {
		lagUS = 0
	}
	x, y := arrivalUS/1e6, lagUS/1e6
	b.n++
	b.sumX += x
	b.sumY += y
	b.sumXX += x * x
	b.sumXY += x * y
}

// Growth returns the fitted backlog growth rate d(lag)/d(time)
// (dimensionless). Zero when fewer than two distinct arrival times were
// seen.
func (b *Backlog) Growth() float64 {
	den := b.n*b.sumXX - b.sumX*b.sumX
	if b.n < 2 || den <= 0 {
		return 0
	}
	return (b.n*b.sumXY - b.sumX*b.sumY) / den
}

// Saturated reports whether the run's backlog grew fast enough to declare
// the arrival process beyond device capacity.
func (b *Backlog) Saturated() bool {
	return b.n >= MinSatSamples && b.Growth() > SatGrowthThreshold
}
