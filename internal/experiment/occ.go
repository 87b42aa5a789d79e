package experiment

import (
	"fmt"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
)

// pointStudy declares a study whose rows are (update mix, client count)
// operating points over the client sweep, keyed by both.
func pointStudy(name, title string, updates []float64, o Options) *Study {
	s := &Study{
		Name:  name,
		Title: title,
		Key:   Column{Head: fmt.Sprintf("%-8s %s", "Clients", "Updates"), CSV: "clients,updates", W: 18},
	}
	for _, u := range updates {
		for _, n := range o.normalize().Clients {
			s.Rows = append(s.Rows, Setting{
				Name:    fmt.Sprintf("%-8d %g%%", n, u*100),
				CSV:     fmt.Sprintf("%d,%g", n, u),
				Clients: n,
				Update:  u,
			})
		}
	}
	return s
}

// CCComparison is the concurrency-control study the paper defers to
// future work: strict 2PL versus backward-validation OCC on the
// centralized real-time database, over the client sweep at two update
// mixes. Columns are 2PL success (0), OCC success (1), OCC restarts (2)
// and the share of validations that found a conflict (3).
func CCComparison(o Options, _ int, _ float64) *Study {
	s := pointStudy("occ", "Concurrency-control study (centralized system): strict 2PL vs backward-validation OCC",
		[]float64{0.01, 0.20}, o)
	s.Runs = []Setting{{Name: "2PL", Kind: rtdbs.CE}, {Name: "OCC", Kind: rtdbs.CEOCC}}
	s.Cols = []Column{
		rate("2PL", "two_pl", 10, 0, success),
		rate("OCC", "occ", 10, 1, success),
		count("Restarts", "restarts", 10, 1, func(r *rtdbs.Result) float64 { return float64(r.Restarts) }),
		{
			Head: "Conflict rate", CSV: "conflict_rate", Run: 1,
			Post: func(fraction float64) float64 { return 100 * fraction },
			W:    12, Text: "%.2f%%", CSVVerb: "%.2f",
			Get: func(r *rtdbs.Result) float64 {
				if r.Validations == 0 {
					return 0
				}
				return float64(r.Conflicts) / float64(r.Validations)
			},
		},
	}
	return s
}

// SpeculationStudy is the second future-work extension: overlap a
// transaction's computation with its in-flight lock upgrades and keep
// the work when the versions validate. It sweeps client counts at
// write-heavy mixes (the regime where upgrades — and therefore
// speculation opportunities — exist). Columns are LS success without
// (0) and with (1) speculation, speculative runs (2), those that
// validated (3) and their ratio (4).
func SpeculationStudy(o Options, _ int, _ float64) *Study {
	s := pointStudy("speculation", "Speculative processing study (LS-CS-RTDBS, upgrades overlapped with computation)",
		[]float64{0.05, 0.20}, o)
	s.Runs = []Setting{
		{Name: "LS", Kind: rtdbs.LS},
		{Name: "LS+spec", Kind: rtdbs.LS, Mod: func(c *config.Config) { c.UseSpeculation = true }},
	}
	s.Cols = []Column{
		rate("LS", "ls", 10, 0, success),
		rate("LS+spec", "ls_spec", 12, 1, success),
		count("Spec runs", "spec_runs", 10, 1, func(r *rtdbs.Result) float64 { return float64(r.M.SpeculativeRuns) }),
		count("Validated", "validated", 10, 1, func(r *rtdbs.Result) float64 { return float64(r.M.SpeculationHits) }),
		{
			Head: "Hit ratio", CSV: "hit_ratio", W: 10, Text: "%.1f%%", CSVVerb: "%.2f",
			Derive: func(_ Setting, col func(int) float64) float64 {
				if col(2) == 0 {
					return 0
				}
				return 100 * (col(3) / col(2))
			},
		},
	}
	return s
}
