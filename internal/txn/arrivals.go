package txn

import (
	"math"
	"time"

	"siteselect/internal/rng"
)

// ArrivalProcess generates successive transaction arrival instants on
// the simulated clock. Next receives the previous arrival (zero before
// the first) and returns the next one; implementations must be
// deterministic functions of their own random stream so a workload is a
// pure function of its seed.
type ArrivalProcess interface {
	Next(prev time.Duration) time.Duration
}

// ClosedLoop is the paper's arrival process: exponential gaps with mean
// Mean (each client cycles think-time → transaction).
type ClosedLoop struct {
	Stream *rng.Stream
	Mean   time.Duration
}

// Next returns prev plus an exponential gap.
func (a *ClosedLoop) Next(prev time.Duration) time.Duration {
	return prev + a.Stream.Exp(a.Mean)
}

// OpenLoop is an open-loop Poisson process at Rate arrivals per second:
// arrivals keep coming regardless of how far behind the system is.
type OpenLoop struct {
	Stream *rng.Stream
	Rate   float64
}

// Next returns prev plus an exponential gap with mean 1/Rate.
func (a *OpenLoop) Next(prev time.Duration) time.Duration {
	return prev + a.Stream.Exp(meanGap(a.Rate))
}

// meanGap converts an arrival rate (per second) to the mean gap.
func meanGap(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// Bursts emits Size arrivals every Every, the k-th burst at
// Start + k*Every. With Spread > 0 each burst's arrivals are spread
// uniformly over the window [burst, burst+Spread) instead of landing on
// one instant; emission stays monotonic.
type Bursts struct {
	Stream *rng.Stream
	Start  time.Duration
	Size   int
	Every  time.Duration
	Spread time.Duration

	burst int64
	left  int
	last  time.Duration
}

// Next returns the next burst member's arrival.
func (a *Bursts) Next(prev time.Duration) time.Duration {
	if a.left == 0 {
		a.left = a.Size
		a.burst++
	}
	a.left--
	at := a.Start + time.Duration(a.burst-1)*a.Every
	if a.Spread > 0 {
		at += time.Duration(a.Stream.Float64() * float64(a.Spread))
	}
	if at < a.last {
		at = a.last // keep the stream of arrivals monotonic
	}
	a.last = at
	return at
}

// VariableRate is a nonhomogeneous Poisson process sampled by Lewis-
// Shedler thinning: candidates arrive at the Peak rate and survive with
// probability RateAt(t)/Peak. RateAt must never exceed Peak.
type VariableRate struct {
	Stream *rng.Stream
	Peak   float64
	RateAt func(t time.Duration) float64
}

// Next returns the next accepted arrival after prev.
func (a *VariableRate) Next(prev time.Duration) time.Duration {
	t := prev
	for {
		t += a.Stream.Exp(meanGap(a.Peak))
		if a.Stream.Float64()*a.Peak <= a.RateAt(t) {
			return t
		}
	}
}

// DiurnalRate returns the raised-cosine day curve used by diurnal
// phases: trough at phase start, crest half a period later, repeating.
func DiurnalRate(start time.Duration, trough, peak float64, period time.Duration) func(time.Duration) float64 {
	return func(t time.Duration) float64 {
		x := float64(t-start) / float64(period)
		return trough + (peak-trough)*(1-math.Cos(2*math.Pi*x))/2
	}
}

// FlashRate returns the flash-crowd curve: base rate at phase start,
// ramping linearly to peak over ramp, then holding peak. A zero ramp
// jumps straight to peak.
func FlashRate(start time.Duration, base, peak float64, ramp time.Duration) func(time.Duration) float64 {
	return func(t time.Duration) float64 {
		if ramp <= 0 {
			return peak
		}
		f := float64(t-start) / float64(ramp)
		if f >= 1 {
			return peak
		}
		if f < 0 {
			f = 0
		}
		return base + (peak-base)*f
	}
}

// Phase is one segment of a phased arrival schedule: Proc generates
// arrivals while they fall in [Start, End).
type Phase struct {
	Start, End time.Duration
	Proc       ArrivalProcess
}

// PhasedArrivals chains arrival processes over consecutive time
// windows. When a phase's process produces an arrival at or beyond the
// phase end, the schedule advances to the next phase, restarting from
// that phase's start — so a quiet process never delays a later phase,
// and a hot one never bleeds into it. Arrivals beyond the last phase's
// end terminate generation at the configured horizon as usual.
type PhasedArrivals struct {
	Phases []Phase
	cur    int
}

// Next returns the next arrival after prev.
func (p *PhasedArrivals) Next(prev time.Duration) time.Duration {
	for {
		ph := p.Phases[p.cur]
		from := prev
		if from < ph.Start {
			from = ph.Start
		}
		t := ph.Proc.Next(from)
		last := p.cur == len(p.Phases)-1
		if t < ph.End || last {
			return t
		}
		p.cur++
		prev = ph.End
	}
}
