package scenario

import (
	"fmt"
	"strconv"
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

// Compiled is the runnable form of a scenario: the lowered Config plus
// the resolved system, by name and by kind.
type Compiled struct {
	Scenario *Scenario
	System   string
	Kind     rtdbs.Kind
	Config   config.Config
}

// Compile lowers the parsed scenario onto a config.Config: base Table 1
// defaults for the chosen system, run-level overrides from the config
// block, one config.ClientClass per clients stanza, fault injection
// from the faults block. The run seed is CellSeed(seed, hash(name)), so
// renaming a scenario reseeds it and nothing else does. Every
// diagnostic names the offending file:line and stanza.
func Compile(s *Scenario) (*Compiled, error) {
	system := s.System
	if system == "" {
		system = SystemCS
	}
	kind, ok := rtdbs.ParseKind(system)
	if !ok {
		return nil, s.errf(s.SystemLine, "system", "unknown system %q (want ce, ce-occ, cs, or ls)", system)
	}

	if len(s.Classes) == 0 {
		return nil, s.errf(s.NameLine, "scenario", "needs at least one clients stanza")
	}
	total := s.Population()

	var cfg config.Config
	if kind.Centralized() {
		cfg = config.DefaultCentralized(total, 0.20)
	} else {
		cfg = config.Default(total, 0.20)
	}
	cfg.Duration = 0 // scenarios must set their horizon explicitly
	cfg.Warmup = 0

	if s.Config != nil {
		for _, set := range s.Config.Settings {
			if err := s.applyConfig(&cfg, set); err != nil {
				return nil, err
			}
		}
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
		class, err := s.compileClass(cfg, cl)
		if err != nil {
			return nil, err
		}
		w.Classes = append(w.Classes, class)
	}
	cfg.Workload = w

	if s.Faults != nil {
		for _, set := range s.Faults.Settings {
			if err := s.applyFault(&cfg.Faults, set); err != nil {
				return nil, err
			}
		}
	}

	if s.Replication != nil {
		for _, set := range s.Replication.Settings {
			if err := s.applyReplication(&cfg.Sharding, set); err != nil {
				return nil, err
			}
		}
	}

	for _, ex := range s.Expects {
		if err := s.checkExpect(system, &cfg, ex); err != nil {
			return nil, err
		}
	}

	cfg.Seed = config.CellSeed(config.NormalizeSeed(s.Seed), nameCoord(s.Name))

	if err := cfg.Validate(); err != nil {
		return nil, s.errf(s.NameLine, "scenario", "invalid compiled config: %v", err)
	}
	return &Compiled{Scenario: s, System: system, Kind: kind, Config: cfg}, nil
}

// value coercion helpers; each names the stanza and key on mismatch.

func (s *Scenario) wantDur(stanza string, set Setting) (time.Duration, error) {
	d, ok := set.Val.AsDuration()
	if !ok {
		return 0, s.errf(set.Line, stanza, "%s wants a duration, got %q", set.Key, set.Val)
	}
	return d, nil
}

func (s *Scenario) wantFloat(stanza string, set Setting) (float64, error) {
	f, ok := set.Val.AsFloat()
	if !ok {
		return 0, s.errf(set.Line, stanza, "%s wants a number, got %q", set.Key, set.Val)
	}
	return f, nil
}

func (s *Scenario) wantInt(stanza string, set Setting) (int, error) {
	n, ok := set.Val.AsInt()
	if !ok {
		return 0, s.errf(set.Line, stanza, "%s wants an integer, got %q", set.Key, set.Val)
	}
	return int(n), nil
}

func (s *Scenario) wantBool(stanza string, set Setting) (bool, error) {
	if set.Val.Kind == ValWord {
		switch set.Val.Word {
		case "true", "on":
			return true, nil
		case "false", "off":
			return false, nil
		}
	}
	return false, s.errf(set.Line, stanza, "%s wants true or false, got %q", set.Key, set.Val)
}

// applyConfig lowers one config-block setting onto the Config.
func (s *Scenario) applyConfig(cfg *config.Config, set Setting) error {
	const st = "config"
	var err error
	switch set.Key {
	case "duration":
		cfg.Duration, err = s.wantDur(st, set)
	case "warmup":
		cfg.Warmup, err = s.wantDur(st, set)
	case "drain":
		cfg.Drain, err = s.wantDur(st, set)
	case "db":
		cfg.DBSize, err = s.wantInt(st, set)
	case "server-memory":
		cfg.ServerMemory, err = s.wantInt(st, set)
	case "client-memory":
		cfg.ClientMemory, err = s.wantInt(st, set)
	case "client-disk":
		cfg.ClientDisk, err = s.wantInt(st, set)
	case "interarrival":
		cfg.MeanInterArrival, err = s.wantDur(st, set)
	case "length":
		cfg.MeanLength, err = s.wantDur(st, set)
	case "slack":
		cfg.MeanSlack, err = s.wantDur(st, set)
	case "objects":
		cfg.MeanObjects, err = s.wantInt(st, set)
	case "updates":
		cfg.UpdateFraction, err = s.wantFloat(st, set)
	case "decomposable":
		cfg.DecomposableFraction, err = s.wantFloat(st, set)
	case "pattern":
		switch set.Val.Word {
		case "uniform":
			cfg.Pattern = config.PatternUniform
		case "localized-rw":
			cfg.Pattern = config.PatternLocalizedRW
		case "hot-cold":
			cfg.Pattern = config.PatternHotCold
		default:
			err = s.errf(set.Line, st, "pattern wants uniform, localized-rw, or hot-cold, got %q", set.Val)
		}
	case "hot-size":
		cfg.HotRegionSize, err = s.wantInt(st, set)
	case "local-fraction":
		cfg.LocalFraction, err = s.wantFloat(st, set)
	case "zipf-theta":
		cfg.ZipfTheta, err = s.wantFloat(st, set)
	case "scheduling":
		switch set.Val.Word {
		case "edf":
			cfg.Scheduling = config.SchedEDF
		case "fcfs":
			cfg.Scheduling = config.SchedFCFS
		default:
			err = s.errf(set.Line, st, "scheduling wants edf or fcfs, got %q", set.Val)
		}
	case "deadlines":
		switch set.Val.Word {
		case "slack":
			cfg.Deadlines = config.DeadlineLengthPlusSlack
		case "independent":
			cfg.Deadlines = config.DeadlineIndependent
		default:
			err = s.errf(set.Line, st, "deadlines wants slack or independent, got %q", set.Val)
		}
	case "threads":
		cfg.ServerThreads, err = s.wantInt(st, set)
	case "executors":
		cfg.ClientExecutors, err = s.wantInt(st, set)
	case "net-latency":
		cfg.NetLatency, err = s.wantDur(st, set)
	case "net-bandwidth":
		cfg.NetBandwidthBps, err = s.wantFloat(st, set)
	case "topology":
		switch set.Val.Word {
		case "shared-bus":
			cfg.Topology = config.TopologySharedBus
		case "switched":
			cfg.Topology = config.TopologySwitched
		default:
			err = s.errf(set.Line, st, "topology wants shared-bus or switched, got %q", set.Val)
		}
	case "disk-read":
		cfg.DiskRead, err = s.wantDur(st, set)
	case "disk-write":
		cfg.DiskWrite, err = s.wantDur(st, set)
	case "server-op-cpu":
		cfg.ServerOpCPU, err = s.wantDur(st, set)
	case "collection-window":
		cfg.CollectionWindow, err = s.wantDur(st, set)
	case "batch-window":
		cfg.BatchWindow, err = s.wantDur(st, set)
	case "max-subtasks":
		cfg.MaxSubtasks, err = s.wantInt(st, set)
	case "retry-timeout":
		cfg.RetryTimeout, err = s.wantDur(st, set)
	case "trace":
		cfg.Trace, err = s.wantBool(st, set)
	case "invariants":
		cfg.CheckInvariants, err = s.wantBool(st, set)
	case "logging":
		cfg.UseLogging, err = s.wantBool(st, set)
	case "write-through":
		cfg.WriteThrough, err = s.wantBool(st, set)
	case "speculation":
		cfg.UseSpeculation, err = s.wantBool(st, set)
	case "servers":
		cfg.Sharding.Servers, err = s.wantInt(st, set)
	case "shard-block":
		cfg.Sharding.Block, err = s.wantInt(st, set)
	default:
		err = s.errf(set.Line, st, "unknown config key %q", set.Key)
	}
	return err
}

// compileClass lowers one clients stanza onto a config.ClientClass.
func (s *Scenario) compileClass(cfg config.Config, cl ClientsStanza) (config.ClientClass, error) {
	const st = "clients"
	class := config.ClientClass{
		Name:  cl.Name,
		Count: int(cl.Count),
		// Class fractions are literal in the workload layer; seed them
		// with the run-level values so omitting the keys inherits.
		UpdateFraction:       cfg.UpdateFraction,
		DecomposableFraction: cfg.DecomposableFraction,
	}
	interarrival := cfg.MeanInterArrival
	var err error
	for _, set := range cl.Settings {
		switch set.Key {
		case "length":
			class.MeanLength, err = s.wantDur(st, set)
		case "slack":
			class.MeanSlack, err = s.wantDur(st, set)
		case "objects":
			class.MeanObjects, err = s.wantInt(st, set)
		case "updates":
			class.UpdateFraction, err = s.wantFloat(st, set)
		case "decomposable":
			class.DecomposableFraction, err = s.wantFloat(st, set)
		case "interarrival":
			interarrival, err = s.wantDur(st, set)
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
			out.Duration, err = s.wantDur(st, par)
		case par.Key == "interarrival" && ph.Kind == "closed":
			out.MeanInterArrival, err = s.wantDur(st, par)
		case par.Key == "rate" && (ph.Kind == "open" || ph.Kind == "diurnal" || ph.Kind == "flash"):
			out.Rate, err = s.wantFloat(st, par)
		case par.Key == "peak" && (ph.Kind == "diurnal" || ph.Kind == "flash"):
			out.Peak, err = s.wantFloat(st, par)
		case par.Key == "period" && ph.Kind == "diurnal":
			out.Period, err = s.wantDur(st, par)
		case par.Key == "ramp" && ph.Kind == "flash":
			out.Ramp, err = s.wantDur(st, par)
		case par.Key == "size" && ph.Kind == "burst":
			out.BurstSize, err = s.wantInt(st, par)
		case par.Key == "every" && ph.Kind == "burst":
			out.BurstEvery, err = s.wantDur(st, par)
		case par.Key == "spread" && ph.Kind == "burst":
			out.BurstSpread, err = s.wantDur(st, par)
		default:
			err = s.errf(par.Line, st, "phase %s does not take key %q", ph.Kind, par.Key)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// compileAccess lowers one access block.
func (s *Scenario) compileAccess(blk *Block) (*config.AccessSpec, error) {
	const st = "access"
	spec := &config.AccessSpec{}
	var err error
	for _, set := range blk.Settings {
		switch set.Key {
		case "pattern":
			switch set.Val.Word {
			case "default":
				spec.Kind = config.AccessDefault
			case "uniform":
				spec.Kind = config.AccessUniform
			case "localized-rw":
				spec.Kind = config.AccessLocalized
			case "hot-cold":
				spec.Kind = config.AccessHotCold
			case "skewed":
				spec.Kind = config.AccessSkewed
			default:
				err = s.errf(set.Line, st, "pattern wants default, uniform, localized-rw, hot-cold, or skewed, got %q", set.Val)
			}
		case "zipf-theta":
			spec.ZipfTheta, err = s.wantFloat(st, set)
		case "hot-size":
			spec.HotSize, err = s.wantInt(st, set)
		case "hot-fraction":
			spec.HotFraction, err = s.wantFloat(st, set)
		case "drift-every":
			spec.DriftEvery, err = s.wantDur(st, set)
		case "drift-step":
			spec.DriftStep, err = s.wantInt(st, set)
		default:
			err = s.errf(set.Line, st, "unknown access key %q", set.Key)
		}
		if err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// applyFault lowers one faults-block setting.
func (s *Scenario) applyFault(f *config.FaultSpec, set Setting) error {
	const st = "faults"
	var err error
	switch set.Key {
	case "drop":
		f.DropRate, err = s.wantFloat(st, set)
	case "dup":
		f.DupRate, err = s.wantFloat(st, set)
	case "spike-rate":
		f.SpikeRate, err = s.wantFloat(st, set)
	case "spike-latency":
		f.SpikeLatency, err = s.wantDur(st, set)
	case "partition-site":
		f.PartitionSite, err = s.wantInt(st, set)
	case "partition-shard":
		f.PartitionShard, err = s.wantInt(st, set)
	case "partition-at":
		f.PartitionAt, err = s.wantDur(st, set)
	case "partition-duration":
		f.PartitionDuration, err = s.wantDur(st, set)
	default:
		err = s.errf(set.Line, st, "unknown faults key %q", set.Key)
	}
	return err
}

// applyReplication lowers one replication-block setting onto the
// sharding topology. The block tunes adaptive replication (hot, window,
// shed-below) and pins static placements (replica OBJ:SHARD, repeatable).
func (s *Scenario) applyReplication(t *config.Topology, set Setting) error {
	const st = "replication"
	var err error
	switch set.Key {
	case "hot":
		t.ReplicateHot, err = s.wantInt(st, set)
	case "window":
		t.HeatWindow, err = s.wantDur(st, set)
	case "shed-below":
		t.ShedBelow, err = s.wantInt(st, set)
	case "replica":
		obj, shard, ok := splitReplica(set.Val)
		if !ok {
			return s.errf(set.Line, st, "replica wants OBJ:SHARD (two non-negative integers), got %q", set.Val)
		}
		if t.Replicas == nil {
			t.Replicas = make(map[int]int)
		}
		t.Replicas[obj] = shard
	default:
		err = s.errf(set.Line, st, "unknown replication key %q", set.Key)
	}
	return err
}

// splitReplica parses a "OBJ:SHARD" placement value.
func splitReplica(v Value) (obj, shard int, ok bool) {
	if v.Kind != ValWord {
		return 0, 0, false
	}
	a, b, found := strings.Cut(v.Word, ":")
	if !found {
		return 0, 0, false
	}
	o, err1 := strconv.Atoi(a)
	sh, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || o < 0 || sh < 0 {
		return 0, 0, false
	}
	return o, sh, true
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

// checkExpect validates one assertion at compile time, and switches on
// whatever instrumentation it needs (miss_share forces tracing, which
// only the client-server systems wire up).
func (s *Scenario) checkExpect(system string, cfg *config.Config, ex ExpectStanza) error {
	const st = "expect"
	if _, problem := metricGetter(ex.Metric, ex.Arg); problem != "" {
		return s.errf(ex.Line, st, "%s", problem)
	}
	if ex.Metric == "miss_share" {
		if system != SystemCS && system != SystemLS {
			return s.errf(ex.Line, st, "miss_share needs miss-cause tracing, which only systems cs and ls record (got %s)", system)
		}
		cfg.Trace = true
	}
	if _, ok := ex.Value.AsFloat(); !ok {
		return s.errf(ex.Line, st, "assertion value must be numeric, got %q", ex.Value)
	}
	if ex.Tol != nil {
		if _, ok := ex.Tol.AsFloat(); !ok {
			return s.errf(ex.Line, st, "tolerance must be numeric, got %q", ex.Tol)
		}
	}
	return nil
}
