package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/netsim"
	"siteselect/internal/rtdbs"
	"siteselect/internal/trace"
)

// Systems a scenario can run. The default is the basic client-server
// system; ce and ce-occ are the centralized variants (which have no
// miss-cause tracing), ls is the load-sharing system.
const (
	SystemCE    = "ce"
	SystemCEOCC = "ce-occ"
	SystemCS    = "cs"
	SystemLS    = "ls"
)

// nameCoord hashes the scenario name into a seed coordinate (FNV-1a),
// so every scenario draws from its own deterministic seed cell no
// matter what file it lives in or what order a batch runs it in.
func nameCoord(name string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h & (1<<63 - 1))
}

// Compiled is the runnable form of one cell of a scenario: the lowered
// Config plus the resolved system, by name and by kind.
type Compiled struct {
	System string
	Kind   rtdbs.Kind
	Config config.Config
}

// defaultSystems is the system list of a scenario without a system
// line.
var defaultSystems = []string{SystemCS}

// Compile lowers a one-system scenario onto a config.Config: base
// Table 1 defaults for the system's family, run-level overrides from
// the config block, one config.ClientClass per clients stanza, fault
// injection from the faults block, replica placement from the
// replication block (the three settings blocks through the key table,
// keys.go). The run seed is CellSeed(seed, hash(name)), so renaming a
// scenario reseeds it and nothing else does. Every diagnostic names the
// offending file:line and stanza. A scenario that lists several systems
// is checked whole and then refused: Run runs it, one cell per system.
func Compile(s *Scenario) (*Compiled, error) {
	systems, traced, err := s.plan()
	if err != nil {
		return nil, err
	}
	if len(systems) > 1 {
		return nil, s.errf(s.SystemLine, "system", "lists %d systems, and Compile lowers one: Run runs a cell for each", len(systems))
	}
	return s.compile(systems[0], traced)
}

// plan checks what the cells of a scenario share — its system list and
// its assertions — and returns the systems it runs, in list order, and
// those whose cell an assertion reads miss_share from, which trace.
func (s *Scenario) plan() (systems, traced []string, err error) {
	systems = s.Systems
	if len(systems) == 0 {
		systems = defaultSystems
	}
	for _, system := range systems {
		if _, ok := rtdbs.ParseKind(system); !ok {
			return nil, nil, s.errf(s.SystemLine, "system", "unknown system %q (want ce, ce-occ, cs, or ls)", system)
		}
	}
	for i := range s.Expects {
		if traced, err = s.checkExpect(systems, traced, &s.Expects[i]); err != nil {
			return nil, nil, err
		}
	}
	return systems, traced, nil
}

// compile lowers the scenario's cell of one system, which plan checked.
func (s *Scenario) compile(system string, traced []string) (*Compiled, error) {
	kind, _ := rtdbs.ParseKind(system)
	if len(s.Classes) == 0 {
		return nil, s.errf(s.NameLine, "scenario", "needs at least one clients stanza")
	}
	cfg := kind.Default(s.Population(), 0.20)
	cfg.Duration = 0 // scenarios must set their horizon explicitly
	cfg.Warmup = 0

	if err := s.apply(&cfg, "config", s.Config); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		line := s.NameLine
		if s.Config != nil {
			line = s.Config.Line
		}
		return nil, s.errf(line, "config", "scenario must set a positive duration")
	}

	w := &config.WorkloadSpec{}
	for _, cl := range s.Classes {
		class, err := s.compileClass(cl)
		if err != nil {
			return nil, err
		}
		w.Classes = append(w.Classes, class)
	}
	cfg.Workload = w

	if err := s.apply(&cfg, "faults", s.Faults); err != nil {
		return nil, err
	}
	if err := s.apply(&cfg, "replication", s.Replication); err != nil {
		return nil, err
	}
	if slices.Contains(traced, system) {
		cfg.Trace = true
	}

	cfg.Seed = config.CellSeed(config.NormalizeSeed(s.Seed), nameCoord(s.Name))

	if err := cfg.Validate(); err != nil {
		return nil, s.errf(s.NameLine, "scenario", "invalid compiled config: %v", err)
	}
	return &Compiled{System: system, Kind: kind, Config: cfg}, nil
}

// compileClass lowers one clients stanza onto a config.ClientClass. A
// key the stanza leaves out stays unset, and the class inherits the
// run-level value when the system is built, so a later Set of that key
// reaches the class too.
func (s *Scenario) compileClass(cl ClientsStanza) (config.ClientClass, error) {
	const st = "clients"
	class := config.ClientClass{Name: cl.Name, Count: int(cl.Count)}
	var interarrival time.Duration
	var err error
	for _, set := range cl.Settings {
		switch set.Key {
		case "length":
			class.MeanLength, err = read(s, st, set, durVal)
		case "slack":
			class.MeanSlack, err = read(s, st, set, durVal)
		case "objects":
			class.MeanObjects, err = read(s, st, set, intVal)
		case "updates":
			class.UpdateFraction, err = ptr(read(s, st, set, numVal))
		case "decomposable":
			class.DecomposableFraction, err = ptr(read(s, st, set, numVal))
		case "interarrival":
			interarrival, err = read(s, st, set, durVal)
		default:
			err = s.errf(set.Line, st, "unknown clients key %q in class %s", set.Key, cl.Name)
		}
		if err != nil {
			return class, err
		}
	}
	if !cl.HasArrivals || len(cl.Arrivals) == 0 {
		// No arrivals block: the paper's closed loop for the whole run.
		class.Phases = []config.ArrivalPhase{{
			Kind:             config.ArrivalClosed,
			MeanInterArrival: interarrival,
		}}
	} else {
		for _, ph := range cl.Arrivals {
			phase, err := s.compilePhase(ph, interarrival)
			if err != nil {
				return class, err
			}
			class.Phases = append(class.Phases, phase)
		}
	}
	if cl.Access != nil {
		spec, err := s.compileAccess(cl.Access)
		if err != nil {
			return class, err
		}
		class.Access = spec
	}
	return class, nil
}

// ptr passes on a read value as the pointer an optional field holds.
func ptr[T any](v T, err error) (*T, error) { return &v, err }

// compilePhase lowers one phase line.
func (s *Scenario) compilePhase(ph PhaseStanza, interarrival time.Duration) (config.ArrivalPhase, error) {
	const st = "arrivals"
	out := config.ArrivalPhase{}
	switch ph.Kind {
	case "closed":
		out.Kind = config.ArrivalClosed
		out.MeanInterArrival = interarrival
	case "open":
		out.Kind = config.ArrivalOpen
	case "burst":
		out.Kind = config.ArrivalBurst
	case "diurnal":
		out.Kind = config.ArrivalDiurnal
	case "flash":
		out.Kind = config.ArrivalFlash
	default:
		return out, s.errf(ph.Line, st, "unknown phase kind %q (want closed, open, burst, diurnal, or flash)", ph.Kind)
	}
	var err error
	for _, par := range ph.Params {
		switch {
		case par.Key == "duration":
			out.Duration, err = read(s, st, par, durVal)
		case par.Key == "interarrival" && ph.Kind == "closed":
			out.MeanInterArrival, err = read(s, st, par, durVal)
		case par.Key == "rate" && (ph.Kind == "open" || ph.Kind == "diurnal" || ph.Kind == "flash"):
			out.Rate, err = read(s, st, par, numVal)
		case par.Key == "peak" && (ph.Kind == "diurnal" || ph.Kind == "flash"):
			out.Peak, err = read(s, st, par, numVal)
		case par.Key == "period" && ph.Kind == "diurnal":
			out.Period, err = read(s, st, par, durVal)
		case par.Key == "ramp" && ph.Kind == "flash":
			out.Ramp, err = read(s, st, par, durVal)
		case par.Key == "size" && ph.Kind == "burst":
			out.BurstSize, err = read(s, st, par, intVal)
		case par.Key == "every" && ph.Kind == "burst":
			out.BurstEvery, err = read(s, st, par, durVal)
		case par.Key == "spread" && ph.Kind == "burst":
			out.BurstSpread, err = read(s, st, par, durVal)
		default:
			err = s.errf(par.Line, st, "phase %s does not take key %q", ph.Kind, par.Key)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// accessPatterns are the words of an access block's pattern key.
var accessPatterns = oneOf("default, uniform, localized-rw, hot-cold, or skewed",
	config.AccessDefault, config.AccessUniform, config.AccessLocalized, config.AccessHotCold, config.AccessSkewed)

// compileAccess lowers one access block.
func (s *Scenario) compileAccess(blk *Block) (*config.AccessSpec, error) {
	const st = "access"
	spec := &config.AccessSpec{}
	var err error
	for _, set := range blk.Settings {
		switch set.Key {
		case "pattern":
			spec.Kind, err = read(s, st, set, accessPatterns)
		case "zipf-theta":
			spec.ZipfTheta, err = read(s, st, set, numVal)
		case "hot-size":
			spec.HotSize, err = read(s, st, set, intVal)
		case "hot-fraction":
			spec.HotFraction, err = read(s, st, set, numVal)
		case "drift-every":
			spec.DriftEvery, err = read(s, st, set, durVal)
		case "drift-step":
			spec.DriftStep, err = read(s, st, set, intVal)
		default:
			err = s.errf(set.Line, st, "unknown access key %q", set.Key)
		}
		if err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// metricGetter resolves an assertion's metric and argument to the
// function that reads the value off a result, or to what is wrong with
// them. The scalar metrics are rtdbs.Metrics; the three that take an
// argument name it as the type that owns the counter does (netsim.Kind,
// trace.Component, netsim.FaultCounters).
func metricGetter(metric, arg string) (get func(*rtdbs.Result) float64, problem string) {
	switch metric {
	case "messages":
		if k, ok := netsim.KindByName(arg); ok {
			return func(r *rtdbs.Result) float64 { return float64(r.Messages[k].Count) }, ""
		}
		return nil, fmt.Sprintf("messages wants a kind argument (e.g. %s), got %q", netsim.KindObjectRequest, arg)
	case "miss_share":
		var names []string
		for c := trace.Component(0); c < trace.NumComponents; c++ {
			if c.String() == arg {
				return func(r *rtdbs.Result) float64 { return r.MissCauses.Share(c) }, ""
			}
			names = append(names, c.String())
		}
		return nil, fmt.Sprintf("miss_share wants a cause argument (%s), got %q", strings.Join(names, ", "), arg)
	case "faults":
		var names []string
		for _, fc := range netsim.FaultCounters {
			if fc.Name == arg {
				return func(r *rtdbs.Result) float64 { return float64(fc.Get(r.Faults)) }, ""
			}
			names = append(names, fc.Name)
		}
		return nil, fmt.Sprintf("faults wants a counter argument (%s), got %q", strings.Join(names, ", "), arg)
	}
	m, ok := rtdbs.MetricByName(metric)
	switch {
	case !ok:
		return nil, fmt.Sprintf("unknown metric %q", metric)
	case arg != "":
		return nil, fmt.Sprintf("%s takes no argument, got %q", metric, arg)
	}
	return m.Get, ""
}

// isMetric reports whether name is in the expect namespace.
func isMetric(name string) bool {
	_, ok := rtdbs.MetricByName(name)
	return ok || name == "messages" || name == "miss_share" || name == "faults"
}

// checkExpect validates one assertion at compile time: each metric
// reads one listed system's cell, named by its subscript (which a
// one-system scenario may leave out), and miss_share reads a cell of
// cs or ls, the systems that trace misses; it adds such a cell's system
// to traced.
func (s *Scenario) checkExpect(systems, traced []string, ex *ExpectStanza) ([]string, error) {
	const st = "expect"
	for _, o := range [...]*Operand{&ex.Operand, ex.Ref} {
		if o == nil {
			continue
		}
		if _, problem := metricGetter(o.Metric, o.Arg); problem != "" {
			return nil, s.errf(ex.Line, st, "%s", problem)
		}
		system := o.Sys
		switch {
		case system == "" && len(systems) > 1:
			return nil, s.errf(ex.Line, st, "%s needs a subscript naming one of the systems %s, as in %s[%s]",
				o.Metric, strings.Join(systems, " "), o.Metric, systems[0])
		case system == "":
			system = systems[0]
		case !slices.Contains(systems, system):
			return nil, s.errf(ex.Line, st, "%s[%s] names a system the scenario does not list (%s)",
				o.Metric, system, strings.Join(systems, " "))
		}
		if o.Metric == "miss_share" {
			if system != SystemCS && system != SystemLS {
				return nil, s.errf(ex.Line, st, "miss_share needs miss-cause tracing, which only systems cs and ls record (got %s)", system)
			}
			traced = append(traced, system)
		}
	}
	if _, ok := ex.Value.AsFloat(); !ok && (ex.Ref == nil || ex.Sign != "") {
		return nil, s.errf(ex.Line, st, "assertion value must be numeric, got %q", ex.Value)
	}
	if ex.Tol != nil {
		if _, ok := ex.Tol.AsFloat(); !ok {
			return nil, s.errf(ex.Line, st, "tolerance must be numeric, got %q", ex.Tol)
		}
	}
	return traced, nil
}
