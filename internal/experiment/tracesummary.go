package experiment

import (
	"fmt"
	"strings"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
	"siteselect/internal/trace"
)

// missed extracts a traced run's count of missed transactions.
func missed(r *rtdbs.Result) float64 { return float64(r.MissCauses.Missed) }

// missedBy extracts a traced run's missed transactions whose slack
// attribution the component dominates.
func missedBy(c trace.Component) func(*rtdbs.Result) float64 {
	return func(r *rtdbs.Result) float64 { return float64(r.MissCauses.ByCause[c]) }
}

// TraceSummary declares the aggregate miss-cause table for one figure's
// workload: the two client-server systems re-run with tracing enabled
// across the client sweep, every missed transaction classified by the
// dominant component of its slack attribution. The centralized system is
// untraced (its requests never leave the server, so there is nothing to
// attribute), so it has no rows. Cells are seeded like the figure's, so
// each replays the untraced figure cell's workload — tracing perturbs
// nothing, only the bookkeeping differs. One row per (clients, system);
// column 0 is the missed total, then one column per component.
func TraceSummary(name string, update float64, o Options) *Study {
	o = o.normalize()
	s := &Study{
		Name:   name + " trace",
		Title:  fmt.Sprintf("%s trace summary — missed transactions by dominant cause (%g%% updates)", name, update*100),
		Note:   "(counts summed over %d replications)",
		Key:    Column{Head: fmt.Sprintf("%-8s %s", "Clients", "System"), CSV: "clients,system", W: 16},
		Update: update,
		Runs:   []Setting{{Mod: func(c *config.Config) { c.Trace = true }}},
		Cols:   []Column{census("Missed", "missed", 7, missed)},
	}
	for _, n := range o.Clients {
		for _, sys := range systems[1:] {
			s.Rows = append(s.Rows, Setting{
				Name:    fmt.Sprintf("%-8d %s", n, sys.Name),
				CSV:     fmt.Sprintf("%d,%s", n, sys.Name),
				Kind:    sys.Kind,
				Clients: n,
			})
		}
	}
	for c := trace.Component(0); c < trace.NumComponents; c++ {
		s.Cols = append(s.Cols, census(c.String(), strings.ReplaceAll(c.String(), "-", "_"), 10, missedBy(c)))
	}
	return s
}
