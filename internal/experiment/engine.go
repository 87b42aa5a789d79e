package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/plot"
	"siteselect/internal/rtdbs"
	"siteselect/internal/stats"
)

// A Setting is one position on a study's row axis or run axis: a name,
// plus whatever that position fixes of a simulation cell. A cell is its
// row's Setting overlaid with one of the study's run Settings; a zero
// Kind, Clients or Update leaves that choice to the other axis, then to
// the Study's default point.
type Setting struct {
	// Name is a row's key cell in text, a run's tag in progress lines.
	Name string
	// CSV is a row's key in CSV, written as is (it may hold several
	// fields); empty means Name, quoted if need be.
	CSV  string
	Kind rtdbs.Kind
	// Clients and Update are the workload point. The cell's seed derives
	// from them and the replication alone — never from the system, the
	// Mod or Options.Set — so every variant compared at one point replays
	// one workload.
	Clients int
	Update  float64
	// Mod adjusts the cell's config after defaults, scaling and seeding;
	// the row's Mod runs before the run's.
	Mod func(*config.Config)
}

// Agg is how a column reduces one value per replication to a cell.
type Agg int

const (
	// Mean is the arithmetic mean with a 95% confidence half-width.
	Mean Agg = iota
	// MeanRound is the mean of integer counters, rounded half up.
	MeanRound
	// Sum adds integer counters over the replications (a census).
	Sum
	// MeanDur is the truncated mean of durations in nanoseconds, printed
	// rounded to a millisecond (CSV: as seconds).
	MeanDur
)

// Column declares one column: where its per-replication values come
// from, how they aggregate, and how a cell prints.
type Column struct {
	// Head and CSV are the text and CSV headers; a column lacking one is
	// left out of that rendering.
	Head, CSV string
	// Run indexes Study.Runs: the run whose results feed Get.
	Run int
	Get func(*rtdbs.Result) float64
	Agg Agg
	// Post, when set, maps the aggregated value and its half-width.
	Post func(float64) float64
	// Derive, when set, computes the cell from the row and the columns
	// to its left instead of from results.
	Derive func(row Setting, col func(int) float64) float64
	// Enum, when set, prints the value as Enum[int(value)].
	Enum []string
	// Only, when set, marks a counter only that system has: rows of any
	// other Kind print "-" in text.
	Only rtdbs.Kind

	// W and Text are the text cell's width and verb; CIW and CIText
	// (taking mean and half-width) replace them when the table is
	// replicated, and give the column a <name>_ci companion in CSV. Sep
	// precedes the cell (default " ").
	W, CIW       int
	Text, CIText string
	Sep          string
	// CSVVerb formats the CSV value (and the half-width).
	CSVVerb string
}

// Study declares one experiment.
type Study struct {
	// Name ("Figure 3") tags progress lines and names chart files; Title
	// is the first output line; Note, a format taking the replication
	// count, follows it when replicated; Footer closes the text table.
	Name, Title, Note, Footer string
	// Key is the left-aligned row-name column: its Head, CSV and W.
	Key Column
	// Clients and Update are the default workload point.
	Clients int
	Update  float64
	Rows    []Setting
	Runs    []Setting
	Cols    []Column
	// Once pins the study to replication 0 (raw counters, not estimates).
	Once bool
	// Transposed prints one line per column and one field per row.
	Transposed bool
	// CSVMeanSuffix renames the mean of a column with a confidence
	// interval when replicated; CSVAlwaysCI writes the interval columns
	// for single runs too (as zeros).
	CSVMeanSuffix string
	CSVAlwaysCI   bool
	// Plot, when set, is the chart template (axis labels and range):
	// Mean columns with a text header, against the rows' client counts.
	Plot *plot.Chart
}

// Table is a study's outcome: per (row, column) one aggregated value
// and, for Mean columns, its 95% confidence half-width.
type Table struct {
	*Study
	// Reps is the number of replications aggregated.
	Reps     int
	mean, ci [][]float64
}

// Value returns the aggregated value at (row, col), indexing Study.Rows
// and Study.Cols.
func (t *Table) Value(row, col int) float64 { return t.mean[row][col] }

// first returns the first non-zero of its arguments.
func first[T comparable](vs ...T) T {
	var zero T
	for _, v := range vs {
		if v != zero {
			return v
		}
	}
	return zero
}

// Run runs every cell of the study on the worker pool and aggregates
// the columns in replication order, so floating-point sums do not depend
// on completion order.
func (s *Study) Run(o Options) (*Table, error) {
	o = o.normalize()
	if s.Once {
		o.Reps = 1
	}
	labels := make([]string, len(s.Rows)*len(s.Runs)*o.Reps)
	for i := range labels {
		row, run, rep := s.at(o, i)
		labels[i] = fmt.Sprintf("%s %q %s rep=%d", s.Name, row.Name, run.Name, rep)
	}
	results, err := runCells(o, labels, func(i int) (*rtdbs.Result, error) {
		kind, cfg, err := s.cell(o, i)
		var res *rtdbs.Result
		if err == nil {
			res, err = rtdbs.Run(kind, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", labels[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{Study: s, Reps: o.Reps}
	vals := make([]float64, o.Reps)
	for ri, row := range s.Rows {
		mean, ci := make([]float64, len(s.Cols)), make([]float64, len(s.Cols))
		for k, c := range s.Cols {
			if c.Derive != nil {
				mean[k] = c.Derive(row, func(col int) float64 { return mean[col] })
				continue
			}
			base := (ri*len(s.Runs) + c.Run) * o.Reps
			for rep := range vals {
				vals[rep] = c.Get(results[base+rep])
			}
			mean[k], ci[k] = aggregate(c.Agg, vals)
			if c.Post != nil {
				mean[k], ci[k] = c.Post(mean[k]), c.Post(ci[k])
			}
		}
		t.mean, t.ci = append(t.mean, mean), append(t.ci, ci)
	}
	return t, nil
}

// Check builds the config of every cell Run would run and validates it,
// so a setting some cell cannot take fails before any cell runs.
func (s *Study) Check(o Options) error {
	o = o.normalize()
	if s.Once {
		o.Reps = 1
	}
	for i := range len(s.Rows) * len(s.Runs) * o.Reps {
		_, cfg, err := s.cell(o, i)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// at returns cell i's (row, run, replication): cells are row-major, and
// Run's aggregation indexes results the same way.
func (s *Study) at(o Options, i int) (row, run Setting, rep int) {
	return s.Rows[i/o.Reps/len(s.Runs)], s.Runs[i/o.Reps%len(s.Runs)], i % o.Reps
}

// cell returns the system and the config cell i runs: the Options'
// config at the cell's point, then the row's and the run's Mods.
func (s *Study) cell(o Options, i int) (rtdbs.Kind, config.Config, error) {
	row, run, rep := s.at(o, i)
	kind := first(run.Kind, row.Kind)
	cfg, err := o.config(kind, first(run.Clients, row.Clients, s.Clients), first(run.Update, row.Update, s.Update), rep)
	for _, mod := range []func(*config.Config){row.Mod, run.Mod} {
		if mod != nil {
			mod(&cfg)
		}
	}
	return kind, cfg, err
}

// aggregate reduces one column's per-replication values. Counters and
// durations are integers carried in float64s, exact below 2^53.
func aggregate(agg Agg, vals []float64) (value, ci float64) {
	if agg == Mean {
		var s stats.Sample
		for _, v := range vals {
			s.Add(v)
		}
		return s.Mean(), s.CI95()
	}
	var sum int64
	for _, v := range vals {
		sum += int64(v)
	}
	n := int64(len(vals))
	switch agg {
	case MeanRound:
		sum = (sum + n/2) / n
	case MeanDur:
		sum /= n
	}
	return float64(sum), 0
}

// hasCI reports whether the column's text cells carry an interval.
func (t *Table) hasCI(c *Column) bool { return t.Reps > 1 && c.CIText != "" }

// cell formats the text cell at (row, col).
func (t *Table) cell(row, col int) string {
	c := &t.Cols[col]
	v := t.mean[row][col]
	switch {
	case c.Only != 0 && t.Rows[row].Kind != c.Only:
		return "-"
	case c.Enum != nil:
		return c.Enum[int(v)]
	case c.Agg == MeanDur:
		return fmt.Sprintf(c.Text, time.Duration(v).Round(time.Millisecond))
	case t.hasCI(c):
		return fmt.Sprintf(c.CIText, v, t.ci[row][col])
	}
	return fmt.Sprintf(c.Text, v)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	if t.Reps > 1 && t.Note != "" {
		fmt.Fprintf(w, t.Note+"\n", t.Reps)
	}
	var cols []int
	for ci := range t.Cols {
		if t.Cols[ci].Head != "" {
			cols = append(cols, ci)
		}
	}
	field := func(c *Column, s string) {
		width := c.W
		if t.hasCI(c) {
			width = c.CIW
		}
		fmt.Fprintf(w, "%s%*s", first(c.Sep, " "), width, s)
	}
	fmt.Fprintf(w, "%-*s", t.Key.W, t.Key.Head)
	if t.Transposed {
		for _, row := range t.Rows {
			field(&t.Cols[cols[0]], row.Name)
		}
		fmt.Fprintln(w)
		for _, ci := range cols {
			fmt.Fprintf(w, "%-*s", t.Key.W, t.Cols[ci].Head)
			for ri := range t.Rows {
				field(&t.Cols[ci], t.cell(ri, ci))
			}
			fmt.Fprintln(w)
		}
	} else {
		for _, ci := range cols {
			field(&t.Cols[ci], t.Cols[ci].Head)
		}
		fmt.Fprintln(w)
		for ri, row := range t.Rows {
			fmt.Fprintf(w, "%-*s", t.Key.W, row.Name)
			for _, ci := range cols {
				field(&t.Cols[ci], t.cell(ri, ci))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprint(w, t.Footer)
}

// CSV writes the table as comma-separated values: a header line, then
// one line per row (transposed: per column).
func (t *Table) CSV(w io.Writer) {
	header := []string{t.Key.CSV}
	records := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		key := first(row.CSV, row.Name)
		if row.CSV == "" && strings.ContainsAny(key, ",\"") {
			key = `"` + strings.ReplaceAll(key, `"`, `""`) + `"`
		}
		records[ri] = []string{key}
	}
	for ci, c := range t.Cols {
		if c.CSV == "" {
			continue
		}
		withCI := c.CIText != "" && (t.Reps > 1 || t.CSVAlwaysCI)
		if withCI && t.Reps > 1 {
			header = append(header, c.CSV+t.CSVMeanSuffix, c.CSV+"_ci")
		} else if withCI {
			header = append(header, c.CSV, c.CSV+"_ci")
		} else {
			header = append(header, c.CSV)
		}
		for ri := range t.Rows {
			v := t.mean[ri][ci]
			switch {
			case c.Enum != nil:
				records[ri] = append(records[ri], c.Enum[int(v)])
				continue
			case c.Agg == MeanDur:
				v = time.Duration(v).Seconds()
			}
			records[ri] = append(records[ri], fmt.Sprintf(c.CSVVerb, v))
			if withCI {
				records[ri] = append(records[ri], fmt.Sprintf(c.CSVVerb, t.ci[ri][ci]))
			}
		}
	}
	records = append([][]string{header}, records...)
	if t.Transposed {
		flipped := make([][]string, len(header))
		for _, rec := range records {
			for i, f := range rec {
				flipped[i] = append(flipped[i], f)
			}
		}
		records = flipped
	}
	for _, rec := range records {
		fmt.Fprintln(w, strings.Join(rec, ","))
	}
}

// Chart plots the table over the study's Plot template, with 95% CI
// error bars when replicated; nil for a study that declares no Plot.
func (t *Table) Chart() *plot.Chart {
	if t.Plot == nil {
		return nil
	}
	c := *t.Plot
	c.Title = t.Title
	for _, row := range t.Rows {
		c.X = append(c.X, float64(row.Clients))
	}
	for ci, col := range t.Cols {
		if col.Head == "" || col.Agg != Mean || col.Derive != nil {
			continue
		}
		s := plot.Series{Name: col.Head}
		for ri := range t.Rows {
			s.Y = append(s.Y, t.mean[ri][ci])
			if t.Reps > 1 {
				s.CI = append(s.CI, t.ci[ri][ci])
			}
		}
		c.Series = append(c.Series, s)
	}
	return &c
}
