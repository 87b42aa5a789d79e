package experiment

// Def registers one study under its rtbench id.
type Def struct {
	ID string
	// Declare builds the study; (n, u) is the operating point of those
	// that run at one (rtbench -ablate-clients and -ablate-updates).
	Declare func(o Options, n int, u float64) *Study
	// Traced, set for the figures, builds the miss-cause census of the
	// same workload (rtbench -trace-summary).
	Traced func(o Options) *Study
}

// figureDef registers one of Figures 3–5.
func figureDef(id, name string, update float64) Def {
	return Def{
		ID:      id,
		Declare: func(o Options, _ int, _ float64) *Study { return Figure(name, update, o) },
		Traced:  func(o Options) *Study { return TraceSummary(name, update, o) },
	}
}

// fixed adapts a study that takes no parameters.
func fixed(declare func() *Study) func(Options, int, float64) *Study {
	return func(Options, int, float64) *Study { return declare() }
}

// Studies is every experiment rtbench can run, in `-exp all` order.
var Studies = []Def{
	figureDef("fig3", "Figure 3", 0.01),
	figureDef("fig4", "Figure 4", 0.05),
	figureDef("fig5", "Figure 5", 0.20),
	{ID: "table2", Declare: fixed(Table2)},
	{ID: "table3", Declare: fixed(Table3)},
	{ID: "table4", Declare: fixed(Table4)},
	{ID: "protocol", Declare: fixed(func() *Study { return Protocol([]int{1, 2, 5, 10, 20}) })},
	{ID: "patterns", Declare: PatternSweep},
	{ID: "occ", Declare: CCComparison},
	{ID: "speculation", Declare: SpeculationStudy},
	{ID: "outage", Declare: OutageStudy},
	{ID: "batch-sweep", Declare: BatchSweep},
	{ID: "shard-sweep", Declare: ShardSweep},
	{ID: "faults", Declare: FaultMatrix},
	{ID: "policies", Declare: PolicyStudy},
	{ID: "sensitivity", Declare: Sensitivity},
	{ID: "ablate-heuristics", Declare: HeuristicAblation},
	{ID: "ablate-window", Declare: WindowAblation},
	{ID: "ablate-downgrade", Declare: DowngradeAblation},
	{ID: "ablate-writethrough", Declare: WriteThroughAblation},
	{ID: "ablate-logging", Declare: LoggingAblation},
}
