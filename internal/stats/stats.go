// Package stats provides the small-sample statistics used when
// experiments are replicated across seeds: means, standard deviations,
// and Student-t confidence half-widths (the t table falls back to the
// normal critical value 1.96 beyond 30 degrees of freedom).
package stats

import "math"

// Sample accumulates observations of one scalar metric.
type Sample struct {
	n    int
	sum  float64
	sumq float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.n++
	s.sum += v
	s.sumq += v * v
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (zero when empty).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// StdDev returns the sample standard deviation (n−1 denominator; zero
// for fewer than two observations).
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	variance := (s.sumq - float64(s.n)*mean*mean) / float64(s.n-1)
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return math.Sqrt(variance)
}

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a ~95% confidence interval for the
// mean, using Student-t critical values for small samples.
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCritical(s.n-1) * s.StdErr()
}

// tCritical returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (normal approximation past the table).
func tCritical(df int) float64 {
	table := []float64{
		0,                                                             // df 0 (unused)
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
