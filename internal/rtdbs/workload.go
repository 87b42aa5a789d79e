package rtdbs

import (
	"math"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/netsim"
	"siteselect/internal/rng"
	"siteselect/internal/txn"
)

// newGenerators builds every client's workload generator from the
// experiment seed; gens[i-1] is client i's. A population's workload
// state is carved from arrays, not built object by object: the
// generators are one array, and each cohort — the clients of one
// declared class, or the whole population under the flat Table 1
// parameters — adds one array per kind of state its clients have
// (carveCohort), so a client carries the fields of its own access
// pattern and arrival processes and of no other. The arrays live as
// long as the system, as does the maker the generators carve their
// transactions from, which is returned beside them; nothing is returned
// to either.
func newGenerators(cfg *config.Config) ([]txn.Generator, *txn.Maker) {
	gens := make([]txn.Generator, cfg.NumClients)
	root := rng.NewStream(cfg.Seed)
	maker := new(txn.Maker) // the system's: every generator draws on it
	if cfg.Workload == nil {
		carveCohort(root, cfg, nil, 1, gens, maker)
		return gens, maker
	}
	first := 1
	for ci := range cfg.Workload.Classes {
		class := &cfg.Workload.Classes[ci]
		carveCohort(root, cfg, class, first, gens[first-1:first-1+class.Count], maker)
		first += class.Count
	}
	return gens, maker
}

// phaseSeedTag offsets the per-phase arrival stream tags well away from
// the other per-client derivations (access uses tag 7), so adding a
// phase to one class never perturbs another stream.
const phaseSeedTag int64 = 0x70686173 // "phas"

// carveCohort initialises gens, the generators of clients first,
// first+1, … in site order: each client's own random stream (derived
// from root by site id), its access stream and access-pattern generator,
// and the Table 1 timing parameters — or, for a declared class, the
// class's parameters (run-level values fill unset fields, a closed
// phase's interarrival among them), its access spec, and a phased
// arrival schedule with one independent stream per phase. What the
// cohort's clients share is worked out once; what each owns is an
// element of an array made here.
func carveCohort(root *rng.Stream, cfg *config.Config, class *config.ClientClass, first int,
	gens []txn.Generator, maker *txn.Maker) {
	wc := txn.WorkloadConfig{
		MeanInterArrival:     cfg.MeanInterArrival,
		MeanLength:           cfg.MeanLength,
		MeanSlack:            cfg.MeanSlack,
		MeanObjects:          cfg.MeanObjects,
		UpdateFraction:       cfg.UpdateFraction,
		DecomposableFraction: cfg.DecomposableFraction,
		IndependentDeadlines: cfg.Deadlines == config.DeadlineIndependent,
	}
	var spec *config.AccessSpec
	var schedule []config.ArrivalPhase
	if class != nil {
		wc.MeanLength = or(class.MeanLength, cfg.MeanLength)
		wc.MeanSlack = or(class.MeanSlack, cfg.MeanSlack)
		wc.MeanObjects = or(class.MeanObjects, cfg.MeanObjects)
		wc.UpdateFraction = orShare(class.UpdateFraction, cfg.UpdateFraction)
		wc.DecomposableFraction = orShare(class.DecomposableFraction, cfg.DecomposableFraction)
		spec, schedule = class.Access, class.Phases
	}
	n, np := len(gens), len(schedule)

	// A client's streams are its own, its access stream, and one per
	// phase: the arrival schedule draws from per-phase streams derived
	// from the client stream, so lengthening one phase's activity never
	// shifts the draws of the next phase or of the workload stream.
	perClient := 2 + np
	streams := make([]rng.Stream, n*perClient)
	access := accessMaker(cfg, spec, n)
	phases := make([]txn.Phase, n*np)
	var phased []txn.PhasedArrivals
	if np > 0 {
		phased = make([]txn.PhasedArrivals, n)
	}
	windows := make([]txn.Phase, np)
	procs := make([]arrivalInit, np)
	start := time.Duration(0)
	for pi, ph := range schedule {
		end := time.Duration(math.MaxInt64)
		if ph.Duration > 0 {
			end = start + ph.Duration
		}
		windows[pi] = txn.Phase{Start: start, End: end}
		ph.MeanInterArrival = or(ph.MeanInterArrival, cfg.MeanInterArrival)
		procs[pi] = phaseMaker(ph, start, n)
		start = end
	}

	for k := range gens {
		i := first + k
		ss := streams[k*perClient : (k+1)*perClient]
		stream, accessStream := &ss[0], &ss[1]
		root.DeriveInto(stream, int64(i))
		stream.DeriveInto(accessStream, 7)
		wc.Access = access(k, i, accessStream)
		if np > 0 {
			ps := phases[k*np : (k+1)*np : (k+1)*np]
			for pi := range ps {
				phaseStream := &ss[2+pi]
				stream.DeriveInto(phaseStream, phaseSeedTag+int64(pi))
				ps[pi] = windows[pi]
				ps[pi].Proc = procs[pi](k, phaseStream)
			}
			phased[k].Phases = ps
			wc.Arrivals = &phased[k]
		}
		gens[k].Init(stream, netsim.SiteID(i), wc, maker)
	}
}

// accessInit initialises the k'th access generator of a cohort's array,
// for client i on its access stream, and hands it out; arrivalInit the
// k'th arrival process of one phase on its phase stream.
type (
	accessInit  func(k, i int, s *rng.Stream) rng.AccessGen
	arrivalInit func(k int, s *rng.Stream) txn.ArrivalProcess
)

// accessMaker makes the array of n access generators of the kind spec
// selects — the run-level Config.Pattern when the class has no spec or
// defers to it — and returns the function that initialises the k'th for
// client i on its stream.
func accessMaker(cfg *config.Config, spec *config.AccessSpec, n int) accessInit {
	kind, hotSize, hotFrac := cfg.Pattern, cfg.HotRegionSize, cfg.LocalFraction
	if spec != nil && spec.Kind != config.AccessDefault {
		kind, hotSize, hotFrac = spec.Kind, spec.HotSize, spec.HotFraction
	}
	switch kind {
	case config.AccessUniform:
		gs := make([]rng.Uniform, n)
		return func(k, _ int, s *rng.Stream) rng.AccessGen {
			gs[k].Init(s, cfg.DBSize)
			return &gs[k]
		}
	case config.AccessHotCold:
		gs := make([]rng.HotCold, n)
		return func(k, _ int, s *rng.Stream) rng.AccessGen {
			gs[k].Init(s, cfg.DBSize, hotSize, hotFrac)
			return &gs[k]
		}
	case config.AccessSkewed:
		gs := make([]rng.Skewed, n)
		return func(k, _ int, s *rng.Stream) rng.AccessGen {
			gs[k].Init(s, rng.SkewedConfig{
				DBSize:      cfg.DBSize,
				ZipfTheta:   spec.ZipfTheta,
				HotSize:     spec.HotSize,
				HotFraction: spec.HotFraction,
				DriftEvery:  spec.DriftEvery,
				DriftStep:   spec.DriftStep,
			})
			return &gs[k]
		}
	default: // config.AccessLocalized, or AccessDefault at the run level
		gs := make([]rng.LocalizedRW, n)
		return func(k, i int, s *rng.Stream) rng.AccessGen {
			gs[k].Init(s, rng.LocalizedRWConfig{
				DBSize:        cfg.DBSize,
				ClientIndex:   i - 1,
				NumClients:    cfg.NumClients,
				RegionSize:    cfg.HotRegionSize,
				LocalFraction: cfg.LocalFraction,
				ZipfTheta:     cfg.ZipfTheta,
			})
			return &gs[k]
		}
	}
}

// phaseMaker lowers one declarative phase onto its arrival process:
// it makes the array of n processes of the phase's kind and returns the
// function that sets up the k'th on its stream. A rate curve is a pure
// function of the phase, so the cohort shares one.
func phaseMaker(ph config.ArrivalPhase, start time.Duration, n int) arrivalInit {
	variable := func(rateAt func(time.Duration) float64) arrivalInit {
		ps := make([]txn.VariableRate, n)
		return func(k int, s *rng.Stream) txn.ArrivalProcess {
			ps[k] = txn.VariableRate{Stream: s, Peak: ph.Peak, RateAt: rateAt}
			return &ps[k]
		}
	}
	switch ph.Kind {
	case config.ArrivalOpen:
		ps := make([]txn.OpenLoop, n)
		return func(k int, s *rng.Stream) txn.ArrivalProcess {
			ps[k] = txn.OpenLoop{Stream: s, Rate: ph.Rate}
			return &ps[k]
		}
	case config.ArrivalBurst:
		ps := make([]txn.Bursts, n)
		return func(k int, s *rng.Stream) txn.ArrivalProcess {
			ps[k] = txn.Bursts{
				Stream: s,
				Start:  start,
				Size:   ph.BurstSize,
				Every:  ph.BurstEvery,
				Spread: ph.BurstSpread,
			}
			return &ps[k]
		}
	case config.ArrivalDiurnal:
		return variable(txn.DiurnalRate(start, ph.Rate, ph.Peak, ph.Period))
	case config.ArrivalFlash:
		return variable(txn.FlashRate(start, ph.Rate, ph.Peak, ph.Ramp))
	default: // config.ArrivalClosed (Validate rejects unknown kinds)
		ps := make([]txn.ClosedLoop, n)
		return func(k int, s *rng.Stream) txn.ArrivalProcess {
			ps[k] = txn.ClosedLoop{Stream: s, Mean: ph.MeanInterArrival}
			return &ps[k]
		}
	}
}

// or and orShare apply run-level defaults to unset class fields: a zero
// duration or count, a nil share.
func or[T comparable](v, def T) T {
	var zero T
	if v != zero {
		return v
	}
	return def
}

func orShare(v *float64, def float64) float64 {
	if v != nil {
		return *v
	}
	return def
}
