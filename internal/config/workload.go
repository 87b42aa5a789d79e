package config

import (
	"errors"
	"fmt"
	"time"
)

// This file defines the declarative workload layer the scenario DSL
// (internal/scenario) compiles onto: heterogeneous client classes, each
// with its own timing parameters, a phased arrival process on the
// simulated clock (closed-loop, open-loop Poisson, bursts, diurnal
// curves, flash crowds), and an optional per-class access-skew spec
// with hot-spot drift. Config.Workload is nil for every path that
// existed before the scenario layer, and a nil Workload leaves the
// simulators byte-identical to a build without it.

// ArrivalKind selects the arrival process of one workload phase.
type ArrivalKind int

// Arrival kinds.
const (
	// ArrivalClosed is the paper's closed-loop process: the gap to the
	// next arrival is exponential with mean MeanInterArrival.
	ArrivalClosed ArrivalKind = iota + 1
	// ArrivalOpen is an open-loop Poisson process at Rate arrivals per
	// second per client, independent of completions.
	ArrivalOpen
	// ArrivalBurst emits BurstSize back-to-back arrivals every
	// BurstEvery, optionally spread over BurstSpread.
	ArrivalBurst
	// ArrivalDiurnal is a nonhomogeneous Poisson process whose rate
	// follows a raised-cosine day curve between Rate (trough) and Peak
	// (crest) with period Period.
	ArrivalDiurnal
	// ArrivalFlash is a flash crowd: the rate ramps linearly from Rate
	// to Peak over Ramp at the start of the phase and holds Peak until
	// the phase ends.
	ArrivalFlash
)

// String names the arrival kind (the scenario DSL's phase keywords).
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalClosed:
		return "closed"
	case ArrivalOpen:
		return "open"
	case ArrivalBurst:
		return "burst"
	case ArrivalDiurnal:
		return "diurnal"
	case ArrivalFlash:
		return "flash"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ArrivalPhase is one phase of a class's arrival schedule. Phases run
// back to back from simulated time zero; a zero Duration (legal only on
// the last phase) extends the phase to the generation horizon.
type ArrivalPhase struct {
	Kind     ArrivalKind
	Duration time.Duration

	// MeanInterArrival parameterizes ArrivalClosed; zero inherits the
	// Config field.
	MeanInterArrival time.Duration
	// Rate (arrivals/sec/client) parameterizes ArrivalOpen and is the
	// trough (diurnal) or pre-flash base (flash) rate.
	Rate float64
	// Peak is the crest rate of ArrivalDiurnal and ArrivalFlash.
	Peak float64
	// Period is the day length of ArrivalDiurnal.
	Period time.Duration
	// Ramp is the flash crowd's base-to-peak ramp time.
	Ramp time.Duration
	// BurstSize and BurstEvery shape ArrivalBurst; BurstSpread spreads
	// each burst's arrivals uniformly over a window instead of
	// delivering them at one instant.
	BurstSize   int
	BurstEvery  time.Duration
	BurstSpread time.Duration
}

// AccessKind selects a client class's object access generator.
type AccessKind int

// Access kinds.
const (
	// AccessDefault inherits the run-level Config.Pattern generator.
	AccessDefault AccessKind = iota
	// AccessUniform draws objects uniformly over the database.
	AccessUniform
	// AccessLocalized is the paper's Localized-RW pattern.
	AccessLocalized
	// AccessHotCold sends HotFraction of accesses to a shared hot set
	// of HotSize objects.
	AccessHotCold
	// AccessSkewed draws objects Zipf-skewed over the whole database
	// (ZipfTheta), with an optional drifting hot spot: HotFraction of
	// accesses hit a window of HotSize objects whose base advances by
	// DriftStep every DriftEvery of simulated time.
	AccessSkewed
)

// String names the access kind (the scenario DSL's pattern keywords).
func (k AccessKind) String() string {
	switch k {
	case AccessDefault:
		return "default"
	case AccessUniform:
		return "uniform"
	case AccessLocalized:
		return "localized-rw"
	case AccessHotCold:
		return "hot-cold"
	case AccessSkewed:
		return "skewed"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// AccessSpec parameterizes a client class's access generator.
type AccessSpec struct {
	Kind AccessKind
	// ZipfTheta is the skew exponent of AccessSkewed (0 = uniform cold
	// traffic).
	ZipfTheta float64
	// HotSize and HotFraction shape the hot set of AccessHotCold and
	// AccessSkewed.
	HotSize     int
	HotFraction float64
	// DriftEvery and DriftStep rotate the AccessSkewed hot window over
	// simulated time (zero DriftEvery = static hot spot).
	DriftEvery time.Duration
	DriftStep  int
}

// ClientClass is a group of Count identical clients sharing workload
// parameters and an arrival schedule. Classes partition the client
// sites in declaration order: the first class owns sites 1..Count, the
// next the following Count sites, and so on.
type ClientClass struct {
	// Name labels the class in reports and diagnostics.
	Name string
	// Count is the number of client sites in the class.
	Count int

	// MeanLength, MeanSlack and MeanObjects override the run-level
	// workload parameters for this class; zero values inherit the
	// Config field. UpdateFraction and DecomposableFraction do too, but
	// zero is a share (read-only / indivisible), so nil is what
	// inherits.
	MeanLength           time.Duration
	MeanSlack            time.Duration
	MeanObjects          int
	UpdateFraction       *float64
	DecomposableFraction *float64

	// Phases is the class's arrival schedule (at least one phase).
	Phases []ArrivalPhase

	// Access overrides the run-level access pattern (nil = inherit).
	Access *AccessSpec
}

// WorkloadSpec describes a heterogeneous scenario workload. When
// Config.Workload is non-nil the per-client generators are built from
// the classes here instead of the flat Table 1 parameters.
type WorkloadSpec struct {
	Classes []ClientClass
}

// TotalClients sums the class counts; it must equal Config.NumClients.
func (w *WorkloadSpec) TotalClients() int {
	n := 0
	for _, c := range w.Classes {
		n += c.Count
	}
	return n
}

// validateWorkload checks every field the scenario compiler can set:
// class counts, workload parameters, phase shapes, and access-skew
// parameters. It returns an error naming the class (and phase) at
// fault so scenario diagnostics can point at the offending stanza.
func (c Config) validateWorkload() error {
	w := c.Workload
	if len(w.Classes) == 0 {
		return errors.New("config: workload has no client classes")
	}
	if n := w.TotalClients(); n != c.NumClients {
		return fmt.Errorf("config: workload classes cover %d clients, NumClients is %d", n, c.NumClients)
	}
	for ci, cl := range w.Classes {
		name := cl.Name
		if name == "" {
			name = fmt.Sprintf("#%d", ci)
		}
		if cl.Count <= 0 {
			return fmt.Errorf("config: class %s: count must be positive", name)
		}
		if cl.MeanLength < 0 {
			return fmt.Errorf("config: class %s: MeanLength must be non-negative", name)
		}
		if cl.MeanSlack < 0 {
			return fmt.Errorf("config: class %s: MeanSlack must be non-negative", name)
		}
		if cl.MeanObjects < 0 {
			return fmt.Errorf("config: class %s: MeanObjects must be non-negative", name)
		}
		if cl.MeanObjects > c.DBSize {
			return fmt.Errorf("config: class %s: MeanObjects %d exceeds DBSize %d", name, cl.MeanObjects, c.DBSize)
		}
		if f := cl.UpdateFraction; f != nil && (*f < 0 || *f > 1) {
			return fmt.Errorf("config: class %s: UpdateFraction %v out of [0,1]", name, *f)
		}
		if f := cl.DecomposableFraction; f != nil && (*f < 0 || *f > 1) {
			return fmt.Errorf("config: class %s: DecomposableFraction %v out of [0,1]", name, *f)
		}
		if len(cl.Phases) == 0 {
			return fmt.Errorf("config: class %s: needs at least one arrival phase", name)
		}
		for pi, ph := range cl.Phases {
			if err := validatePhase(ph, pi == len(cl.Phases)-1); err != nil {
				return fmt.Errorf("config: class %s: phase %d (%s): %w", name, pi+1, ph.Kind, err)
			}
		}
		if cl.Access != nil {
			if err := c.validateAccess(*cl.Access); err != nil {
				return fmt.Errorf("config: class %s: access: %w", name, err)
			}
		}
	}
	return nil
}

func validatePhase(ph ArrivalPhase, last bool) error {
	if ph.Duration < 0 {
		return errors.New("duration must be non-negative")
	}
	if ph.Duration == 0 && !last {
		return errors.New("only the last phase may leave duration unset")
	}
	switch ph.Kind {
	case ArrivalClosed:
		if ph.MeanInterArrival < 0 {
			return errors.New("closed-loop interarrival must be non-negative")
		}
	case ArrivalOpen:
		if ph.Rate <= 0 {
			return errors.New("open-loop phase needs a positive rate")
		}
	case ArrivalBurst:
		if ph.BurstSize <= 0 {
			return errors.New("burst phase needs a positive size")
		}
		if ph.BurstEvery <= 0 {
			return errors.New("burst phase needs a positive every interval")
		}
		if ph.BurstSpread < 0 {
			return errors.New("burst spread must be non-negative")
		}
	case ArrivalDiurnal:
		if ph.Rate <= 0 {
			return errors.New("diurnal phase needs a positive trough rate")
		}
		if ph.Peak < ph.Rate {
			return errors.New("diurnal peak must be at least the trough rate")
		}
		if ph.Period <= 0 {
			return errors.New("diurnal phase needs a positive period")
		}
	case ArrivalFlash:
		if ph.Rate <= 0 {
			return errors.New("flash phase needs a positive base rate")
		}
		if ph.Peak < ph.Rate {
			return errors.New("flash peak must be at least the base rate")
		}
		if ph.Ramp < 0 {
			return errors.New("flash ramp must be non-negative")
		}
	default:
		return fmt.Errorf("unknown arrival kind %d", int(ph.Kind))
	}
	return nil
}

func (c Config) validateAccess(a AccessSpec) error {
	switch a.Kind {
	case AccessDefault, AccessUniform, AccessLocalized:
		// No parameters beyond the run-level ones.
	case AccessHotCold:
		if a.HotSize <= 0 || a.HotSize > c.DBSize {
			return fmt.Errorf("HotSize %d out of (0,%d]", a.HotSize, c.DBSize)
		}
		if a.HotFraction < 0 || a.HotFraction > 1 {
			return fmt.Errorf("HotFraction %v out of [0,1]", a.HotFraction)
		}
	case AccessSkewed:
		if a.ZipfTheta < 0 {
			return fmt.Errorf("ZipfTheta %v must be non-negative", a.ZipfTheta)
		}
		if a.HotFraction < 0 || a.HotFraction > 1 {
			return fmt.Errorf("HotFraction %v out of [0,1]", a.HotFraction)
		}
		if a.HotFraction > 0 && (a.HotSize <= 0 || a.HotSize > c.DBSize) {
			return fmt.Errorf("HotSize %d out of (0,%d]", a.HotSize, c.DBSize)
		}
		if a.DriftEvery < 0 {
			return errors.New("DriftEvery must be non-negative")
		}
		if a.DriftEvery > 0 && a.DriftStep <= 0 {
			return errors.New("DriftStep must be positive when DriftEvery is set")
		}
	default:
		return fmt.Errorf("unknown access kind %d", int(a.Kind))
	}
	return nil
}
