package experiment

import (
	"fmt"
	"strings"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/rtdbs"
)

// ablation declares a family of LS variants at a fixed workload point:
// one row per variant, the load-sharing system as the only run. Columns
// are success (0), cache hit rate (1), the shipped / decomposed /
// migration counters (2–4) and the mean exclusive-lock response (5).
func ablation(o Options, title string, variants ...Setting) *Study {
	return o.atPoint(&Study{
		Name:  title,
		Title: title + " (%d clients, %g%% updates)",
		Note:  "(success mean ± 95%% CI over %d replications)",
		Key:   Column{Head: "Variant", CSV: "variant", W: 22},
		Rows:  variants,
		Runs:  systems[2:],
		Cols: []Column{
			rate("Success", "success", 9, 0, success).withCI(14, "%.1f ± %.1f%%"),
			rate("CacheHit", "cache_hit", 9, 0, hitRate),
			count("Shipped", "shipped", 8, 0, func(r *rtdbs.Result) float64 { return float64(r.M.ShippedTxns) }),
			count("Decomp", "decomposed", 8, 0, func(r *rtdbs.Result) float64 { return float64(r.M.DecomposedTxns) }),
			count("Migr", "migrations", 8, 0, func(r *rtdbs.Result) float64 { return float64(r.MigrationsStarted) }),
			{
				Head: "EL resp", CSV: "el_resp_s", Agg: MeanDur, W: 10, Text: "%v", CSVVerb: "%.4f",
				Get: func(r *rtdbs.Result) float64 { return float64(r.M.ExclusiveResponse.Mean()) },
			},
		},
	})
}

// HeuristicAblation isolates the contribution of each load-sharing
// technique: all off (equals basic CS), each alone, and all on.
func HeuristicAblation(o Options) *Study {
	only := func(name string, on func(*config.Config)) Setting {
		return Setting{Name: name, Mod: func(c *config.Config) {
			c.UseH1, c.UseH2, c.UseDecomposition, c.UseForwardLists = false, false, false, false
			on(c)
		}}
	}
	return ablation(o, "Load-sharing technique ablation",
		only("all-off (=CS)", func(*config.Config) {}),
		only("H1 only", func(c *config.Config) { c.UseH1 = true }),
		only("H2 only", func(c *config.Config) { c.UseH2 = true }),
		only("decomposition only", func(c *config.Config) { c.UseDecomposition = true }),
		only("forward lists only", func(c *config.Config) { c.UseForwardLists = true }),
		Setting{Name: "all-on (=LS)"})
}

// WindowAblation sweeps the forward-list collection window.
func WindowAblation(o Options) *Study {
	var variants []Setting
	for _, w := range []time.Duration{0, 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		variants = append(variants, Setting{
			Name: fmt.Sprintf("window=%v", w),
			Mod:  func(c *config.Config) { c.CollectionWindow = w },
		})
	}
	return ablation(o, "Collection window ablation", variants...)
}

// DowngradeAblation compares the modified callback scheme (EL→SL
// downgrade) against plain full-release callbacks.
func DowngradeAblation(o Options) *Study {
	return ablation(o, "Callback downgrade ablation",
		Setting{Name: "downgrade on", Mod: func(c *config.Config) { c.UseDowngrade = true }},
		Setting{Name: "downgrade off", Mod: func(c *config.Config) { c.UseDowngrade = false }})
}

// WriteThroughAblation quantifies the paper's implicit write-back
// choice: clients retaining dirty copies until a callback versus pushing
// every committed update to the server immediately.
func WriteThroughAblation(o Options) *Study {
	return ablation(o, "Write-back vs write-through ablation",
		Setting{Name: "write-back (paper)", Mod: func(c *config.Config) { c.WriteThrough = false }},
		Setting{Name: "write-through", Mod: func(c *config.Config) { c.WriteThrough = true }})
}

// LoggingAblation charges client-based write-ahead logging (the
// recovery scheme of the framework the paper builds on) against the
// cost-free baseline the paper evaluates.
func LoggingAblation(o Options) *Study {
	return ablation(o, "Client-based logging ablation",
		Setting{Name: "no logging (paper)", Mod: func(c *config.Config) { c.UseLogging = false }},
		Setting{Name: "client WAL + group commit", Mod: func(c *config.Config) { c.UseLogging = true }})
}

// threeSystems declares a study that runs CE, CS and LS under each row
// variant and reports their success rates in columns 0–2.
func threeSystems(o Options, name, title, key string, keyW int, rows []Setting) *Study {
	s := o.atPoint(&Study{
		Name:  name,
		Title: title + " (%d clients, %g%% updates)",
		Key:   Column{Head: key, CSV: strings.ToLower(key), W: keyW},
		Rows:  rows,
		Runs:  systems,
	})
	for i, sys := range systems {
		s.Cols = append(s.Cols, rate(sys.Name, strings.ToLower(sys.Name), 9, i, success))
	}
	return s
}

// PatternSweep is the access-pattern robustness experiment: the paper
// evaluates only Localized-RW; this sweep shows how the architectural
// ordering fares when locality is removed (Uniform) or concentrated on
// a shared hot set (HotCold). Columns 3 and 4 are the CS and LS cache
// hit rates.
func PatternSweep(o Options) *Study {
	var rows []Setting
	for _, pat := range []config.AccessPattern{config.PatternLocalizedRW, config.PatternUniform, config.PatternHotCold} {
		rows = append(rows, Setting{Name: pat.String(), Mod: func(c *config.Config) { c.Pattern = pat }})
	}
	s := threeSystems(o, "patterns", "Access-pattern robustness", "Pattern", 14, rows)
	s.Cols = append(s.Cols, rate("CS hit", "cs_hit", 9, 1, hitRate), rate("LS hit", "ls_hit", 9, 2, hitRate))
	return s
}

// PolicyStudy exercises the design-space knobs the paper fixes: EDF vs
// FCFS executor scheduling, length-dependent vs independent deadlines,
// and shared-bus vs switched interconnect.
func PolicyStudy(o Options) *Study {
	return threeSystems(o, "policies", "Policy study", "Variant", 24, []Setting{
		{Name: "baseline (EDF, bus)"},
		{Name: "FCFS scheduling", Mod: func(c *config.Config) { c.Scheduling = config.SchedFCFS }},
		{Name: "independent deadlines", Mod: func(c *config.Config) { c.Deadlines = config.DeadlineIndependent }},
		{Name: "switched network", Mod: func(c *config.Config) { c.Topology = config.TopologySwitched }},
	})
}

// Sensitivity sweeps ServerOpCPU — the single calibrated cost — and
// reports how the centralized system's collapse point moves, making the
// calibration choice (and deviation D1 in EXPERIMENTS.md) explicit.
// Columns 0–2 are CE at 40, 60 and 80 clients, 3 is LS at 60, and 4
// brackets the client count where CE first falls below LS.
func Sensitivity(Options) *Study {
	s := &Study{
		Name:   "sensitivity",
		Title:  "Calibration sensitivity: CE collapse position vs ServerOpCPU (1% updates)",
		Key:    Column{Head: "OpCPU", CSV: "op_cpu", W: 10},
		Update: 0.01,
		Runs: []Setting{
			{Name: "CE@40", Kind: rtdbs.CE, Clients: 40},
			{Name: "CE@60", Kind: rtdbs.CE, Clients: 60},
			{Name: "CE@80", Kind: rtdbs.CE, Clients: 80},
			{Name: "LS@60", Kind: rtdbs.LS, Clients: 60},
		},
	}
	for _, op := range []time.Duration{8 * time.Millisecond, 12 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond} {
		s.Rows = append(s.Rows, Setting{Name: op.String(), Mod: func(c *config.Config) { c.ServerOpCPU = op }})
	}
	for i, run := range s.Runs {
		s.Cols = append(s.Cols, rate(run.Name, strings.ToLower(strings.ReplaceAll(run.Name, "@", "_")), 9, i, success))
	}
	s.Cols = append(s.Cols, Column{
		Head: "CE<LS crossover", CSV: "crossover", W: 16, Text: "%s",
		Enum: []string{"<=40 clients", "40-60 clients", "60-80 clients", ">80 clients"},
		Derive: func(_ Setting, col func(int) float64) float64 {
			for ce := 0; ce < 3; ce++ {
				if col(ce) < col(3) {
					return float64(ce)
				}
			}
			return 3
		},
	})
	return s
}

// Protocol declares the Figure 1 / Figure 2 message-count comparison
// for n lock requests on one object — closed forms, no simulation — with
// the paper's worked example as its footer. Columns are 2PL (0),
// callback locking (1) and lock grouping (2); a row's Clients is its n.
func Protocol(ns []int) *Study {
	closed := func(head, csv string, w int, messages func(int) int) Column {
		return Column{
			Head: head, CSV: csv, W: w, Text: "%.0f", CSVVerb: "%.0f",
			Derive: func(row Setting, _ func(int) float64) float64 { return float64(messages(row.Clients)) },
		}
	}
	example := func(title string, lines []string) string {
		return title + "\n  " + strings.Join(lines, "\n  ") + "\n"
	}
	s := &Study{
		Name:  "protocol",
		Title: "Figures 1–2 — Messages to serve n lock requests on one object",
		Footer: "\nWorked example (one object moving Client A -> Client B):\n" +
			example("Figure 1 (callback locking):", forward.FigureScenarioCallback()) +
			example("Figure 2 (lock grouping):", forward.FigureScenarioGrouped()),
		Key:  Column{Head: "n", CSV: "n", W: 8},
		Rows: clientRows(ns),
		Cols: []Column{
			closed("2PL (3n)", "two_pl", 10, forward.Messages2PL),
			closed("Callback (4n)", "callback", 14, forward.MessagesCallback),
			closed("Grouped (2n+1)", "grouped", 14, forward.MessagesGrouped),
		},
	}
	return s
}
