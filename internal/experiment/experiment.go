// Package experiment declares every table and figure of the paper's
// evaluation (Section 5), plus the ablations and extension studies, and
// runs them all through one study engine (engine.go): a Study names its
// rows, runs and columns, and the engine alone enumerates, runs,
// aggregates and renders — a new study is a new declaration, never a new
// loop or renderer (make study-lint). Studies is the ordered registry
// rtbench dispatches on.
//
// The engine fans a study's simulation cells — each (row, run,
// replication) combination — across a bounded worker pool
// (Options.Parallel). Each cell is seeded independently via
// config.CellSeed, so a grid's aggregated results depend only on the
// master seed, never on worker count or completion order, and
// replications (Options.Reps) are aggregated into means with 95%
// confidence half-widths.
package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/plot"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
)

// DefaultClients is the client-count sweep of Figures 3–5.
var DefaultClients = []int{20, 40, 60, 80, 100}

// Options tune a run of an experiment.
type Options struct {
	// Scale shrinks run length (1 = the full 30-minute virtual runs).
	Scale float64
	// Seed is the master seed; every cell's seed is derived from it and
	// the cell coordinates (see config.CellSeed).
	Seed int64
	// Clients overrides the client sweep for figures.
	Clients []int
	// Parallel bounds the worker pool fanning cells out
	// (0 = runtime.GOMAXPROCS(0)). Results are identical for any value.
	Parallel int
	// Reps replicates every cell over derived per-replication seeds and
	// aggregates the results as mean + 95% CI (0 or 1 = single run).
	Reps int
	// Set holds key=value settings over scenario.Set's key table
	// ("batch-window=250ms", "invariants=on"), applied in order to every
	// cell's config after defaults, scaling and seeding, before the
	// row's and the run's Mods. A cell keeps the client count and update
	// share it is seeded at; clients= and updates= move the point of the
	// studies that run at one (atPoint).
	Set []string
	// Progress, when non-nil, is called (serialized) after each cell
	// completes, with per-cell wall-clock timing.
	Progress metrics.ProgressFunc
	// Timing, when non-nil, accumulates per-cell wall-clock timings.
	Timing *metrics.WallClock
}

func (o Options) normalize() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	o.Seed = config.NormalizeSeed(o.Seed)
	if len(o.Clients) == 0 {
		o.Clients = DefaultClients
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	return o
}

// config builds one cell's config: the Table 1 defaults of the system's
// family at the workload point, scaled, seeded for the replication, and
// adjusted by the Options' settings, which leave the point alone.
func (o Options) config(kind rtdbs.Kind, n int, update float64, rep int) (config.Config, error) {
	cfg := kind.Default(n, update).Scale(o.Scale)
	cfg.Seed = o.cellSeed(n, update, rep)
	err := scenario.Set(&cfg, o.Set...)
	cfg.NumClients, cfg.UpdateFraction = n, update
	return cfg, err
}

// atPoint puts a one-point study (the ablations, patterns, policies,
// outage, faults and the batch and shard sweeps) at its operating
// point: 60 clients at 20 % updates, or where a clients= or updates= in
// o.Set moves it. The client count and update percentage fill the two
// verbs of its title. A setting the key table refuses is left to the
// cells, which all fail on it.
func (o Options) atPoint(s *Study) *Study {
	cfg := config.Default(60, 0.20)
	_ = scenario.Set(&cfg, o.Set...)
	s.Clients, s.Update = cfg.NumClients, cfg.UpdateFraction
	s.Title = fmt.Sprintf(s.Title, s.Clients, s.Update*100)
	return s
}

// systems is the run axis of Figures 3–5 and of every study that
// compares the paper's three systems, in series order.
var systems = []Setting{
	{Name: "CE", Kind: rtdbs.CE},
	{Name: "CS", Kind: rtdbs.CS},
	{Name: "LS", Kind: rtdbs.LS},
}

// Extractors shared by several studies.
var (
	success  = (*rtdbs.Result).SuccessRate
	hitRate  = (*rtdbs.Result).CacheHitRate
	messages = func(r *rtdbs.Result) float64 { return float64(r.TotalMessages) }
)

// rate is a mean-percentage column: "12.3%" right-aligned in w.
func rate(head, csv string, w, run int, get func(*rtdbs.Result) float64) Column {
	return Column{Head: head, CSV: csv, Run: run, Get: get, W: w, Text: "%.1f%%", CSVVerb: "%.2f"}
}

// withCI gives a Mean column its replicated form (mean, half-width).
func (c Column) withCI(w int, verb string) Column {
	c.CIW, c.CIText = w, verb
	return c
}

// mean is a plain per-run mean column with no interval shown.
func mean(head, csv string, w, run int, verb string, get func(*rtdbs.Result) float64) Column {
	return Column{Head: head, CSV: csv, Run: run, Get: get, W: w, Text: verb, CSVVerb: "%.1f"}
}

// count is a rounded-mean counter column.
func count(head, csv string, w, run int, get func(*rtdbs.Result) float64) Column {
	return Column{Head: head, CSV: csv, Run: run, Get: get, Agg: MeanRound, W: w, Text: "%.0f", CSVVerb: "%.0f"}
}

// census is a column of counts summed over replications, not averaged.
func census(head, csv string, w int, get func(*rtdbs.Result) float64) Column {
	return Column{Head: head, CSV: csv, Get: get, Agg: Sum, W: w, Text: "%.0f", CSVVerb: "%.0f"}
}

// clientRows is a row axis over client counts.
func clientRows(clients []int) []Setting {
	rows := make([]Setting, len(clients))
	for i, n := range clients {
		rows[i] = Setting{Name: strconv.Itoa(n), Clients: n}
	}
	return rows
}

// paperTable starts one of the paper's figures or tables: a row per
// client count, means with 95% confidence intervals when replicated.
func paperTable(name, title string, clients []int) *Study {
	return &Study{
		Name:  name,
		Title: title,
		Note:  "(mean ± 95%% CI over %d replications)",
		Key:   Column{Head: "Clients", CSV: "clients", W: 10},
		Rows:  clientRows(clients),
	}
}

// Figure declares Figure 3 (update 0.01), Figure 4 (0.05) or Figure 5
// (0.20): percentage of transactions completed within their deadlines
// vs number of clients (o.Clients), for the three systems.
func Figure(name string, update float64, o Options) *Study {
	s := paperTable(name, fmt.Sprintf("%s — Percentage of Transactions Completed Within Their Deadlines (%g%% updates)", name, update*100),
		o.normalize().Clients)
	s.Update, s.Runs, s.CSVMeanSuffix = update, systems, "_mean"
	s.Plot = &plot.Chart{
		XLabel: "Number of clients",
		YLabel: "Transactions completed within deadline (%)",
		YMin:   0,
		YMax:   100,
	}
	for i, sys := range systems {
		s.Cols = append(s.Cols,
			rate(sys.Kind.String(), strings.ToLower(sys.Name), 12, i, success).withCI(18, "%6.1f ± %4.1f"))
	}
	return s
}

// Table2Updates are the update mixes of Table 2's columns; Table2Clients
// the client counts of Table 2's and Table 3's rows.
var (
	Table2Updates = [3]float64{0.01, 0.05, 0.20}
	Table2Clients = []int{20, 60, 100}
)

// Table2 declares "Average Cache Hit Rates in the CS-RTDBS and
// LS-CS-RTDBS": columns 0–2 are CS at 1%, 5% and 20% updates, 3–5 LS.
func Table2() *Study {
	s := paperTable("table2", "Table 2 — Average Cache Hit Rates in the CS-RTDBS and LS-CS-RTDBS", Table2Clients)
	for _, sys := range systems[1:] {
		for ui, u := range Table2Updates {
			s.Runs = append(s.Runs, Setting{Name: fmt.Sprintf("%s u=%g", sys.Name, u), Kind: sys.Kind, Update: u})
			c := Column{
				Head: fmt.Sprintf("%s %g%%", sys.Name, u*100),
				CSV:  fmt.Sprintf("%s_%g", strings.ToLower(sys.Name), u*100),
				Run:  len(s.Runs) - 1, Get: hitRate,
				W: 8, Text: "%.2f%%", CIW: 13, CIText: "%5.2f ± %4.2f%%", CSVVerb: "%.2f",
			}
			if ui == 0 {
				c.Sep = " | "
			}
			s.Cols = append(s.Cols, c)
		}
	}
	return s
}

// truncNs quantizes seconds to a whole number of nanoseconds, the
// resolution response times are measured at.
func truncNs(sec float64) float64 {
	return time.Duration(sec * float64(time.Second)).Seconds()
}

// Table3 declares "Average Object Response Times for 1% updates", in
// seconds by lock mode: columns are CS SL, CS EL, LS SL, LS EL.
func Table3() *Study {
	s := paperTable("table3", "Table 3 — Average Object Response Times (in seconds) for 1% updates", Table2Clients)
	s.Update, s.Runs = 0.01, systems[1:]
	modes := []struct {
		name string
		get  func(*rtdbs.Result) float64
	}{
		{"SL", func(r *rtdbs.Result) float64 { return r.M.SharedResponse.Mean().Seconds() }},
		{"EL", func(r *rtdbs.Result) float64 { return r.M.ExclusiveResponse.Mean().Seconds() }},
	}
	for ri, sys := range s.Runs {
		for mi, m := range modes {
			c := Column{
				Head: sys.Name + " " + m.name,
				CSV:  strings.ToLower(sys.Name + "_" + m.name),
				Run:  ri, Get: m.get, Post: truncNs,
				W: 10, Text: "%.3f", CIW: 15, CIText: "%.3f ± %.3f", CSVVerb: "%.4f",
			}
			if mi == 0 {
				c.Sep = " | "
			}
			s.Cols = append(s.Cols, c)
		}
	}
	return s
}

// Table4 declares "Number of Messages Passed in the CS-RTDBSs (100
// Clients, 1% updates)", printed one message kind per line: rows 0 and
// 1 are CS and LS, column 2 the forward-list hops. Its cells are raw
// protocol counters, so it always reports replication 0.
func Table4() *Study {
	s := &Study{
		Name:       "table4",
		Title:      "Table 4 — Number of Messages Passed in the CS-RTDBSs (100 Clients, 1% updates)",
		Key:        Column{CSV: "row", W: 55},
		Clients:    100,
		Update:     0.01,
		Runs:       []Setting{{}},
		Once:       true,
		Transposed: true,
	}
	for _, sys := range systems[1:] {
		s.Rows = append(s.Rows, Setting{Name: sys.Kind.String(), CSV: strings.ToLower(sys.Name), Kind: sys.Kind})
	}
	kind := func(head, csv string, k netsim.Kind) Column {
		return census(head, csv, 12, func(r *rtdbs.Result) float64 { return float64(r.Messages[k].Count) })
	}
	forwards := kind("Object Requests Satisfied Using Forward Lists (c2c)", "forward_list_hops", netsim.KindClientForward)
	forwards.Only = rtdbs.LS
	s.Cols = []Column{
		kind("Object Request Messages (client to server)", "object_requests", netsim.KindObjectRequest),
		kind("Objects Sent (server to client)", "objects_sent", netsim.KindObjectShip),
		forwards,
		kind("Objects Recall Messages (server to client)", "recalls", netsim.KindRecall),
		kind("Objects Returned (client to server)", "returns", netsim.KindObjectReturn),
		census("All Messages", "all_messages", 12, messages),
	}
	return s
}
