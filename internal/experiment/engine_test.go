package experiment

import (
	"math"
	"strings"
	"testing"

	"siteselect/internal/rtdbs"
)

// zeroTable is the study's table with every cell zero, for rendering
// tests that need no simulation.
func zeroTable(s *Study, reps int) *Table {
	t := &Table{Study: s, Reps: reps}
	for range s.Rows {
		t.mean = append(t.mean, make([]float64, len(s.Cols)))
		t.ci = append(t.ci, make([]float64, len(s.Cols)))
	}
	return t
}

// TestAggregate checks every aggregation kind against hand-computed
// values.
func TestAggregate(t *testing.T) {
	for _, c := range []struct {
		name      string
		agg       Agg
		vals      []float64
		value, ci float64
	}{
		// sd = 1, se = 1/sqrt(3), t(0.975, df 2) = 4.303.
		{"mean with CI95 on 3 reps", Mean, []float64{1, 2, 3}, 2, 4.303 / math.Sqrt(3)},
		{"mean of one rep has no CI", Mean, []float64{7.5}, 7.5, 0},
		{"meanRound rounds 1.5 up", MeanRound, []float64{1, 2}, 2, 0},
		{"meanRound rounds 4/3 down", MeanRound, []float64{1, 1, 2}, 1, 0},
		{"meanRound rounds 5/3 up", MeanRound, []float64{1, 2, 2}, 2, 0},
		{"sum", Sum, []float64{3, 0, 4}, 7, 0},
		{"meanDur truncates 1.5ns", MeanDur, []float64{1, 2}, 1, 0},
		{"meanDur", MeanDur, []float64{10e6, 20e6, 30e6}, 20e6, 0},
	} {
		value, ci := aggregate(c.agg, c.vals)
		if value != c.value || math.Abs(ci-c.ci) > 1e-12 {
			t.Errorf("%s: got %v ± %v, want %v ± %v", c.name, value, ci, c.value, c.ci)
		}
	}
}

// TestDerivedRatios checks the ratio columns derived from other
// columns, including the zero-denominator case each guards.
func TestDerivedRatios(t *testing.T) {
	cols := func(vals ...float64) func(int) float64 {
		return func(i int) float64 { return vals[i] }
	}
	batch := BatchSweep(Options{}, 6, 0.2)
	for _, c := range []struct {
		missed, lockWait float64
		share            float64
	}{
		{0, 0, 0}, // no misses: the share is 0, not NaN
		{8, 2, 0.25},
		{40, 7, 0.175},
	} {
		col := cols(0, c.missed, c.lockWait)
		if got := batch.Cols[3].Derive(Setting{}, col); got != 100*c.share {
			t.Errorf("lw-share(%v/%v) = %v%%, want %v%%", c.lockWait, c.missed, got, 100*c.share)
		}
		if got := batch.Cols[4].Derive(Setting{}, col); got != c.share {
			t.Errorf("lock_wait_share(%v/%v) = %v, want %v", c.lockWait, c.missed, got, c.share)
		}
	}
	spec := SpeculationStudy(Options{}, 0, 0)
	if got := spec.Cols[4].Derive(Setting{}, cols(0, 0, 0, 0)); got != 0 {
		t.Errorf("hit ratio with no speculative runs = %v, want 0", got)
	}
	if got := spec.Cols[4].Derive(Setting{}, cols(0, 0, 20, 15)); got != 75 {
		t.Errorf("hit ratio 15/20 = %v, want 75", got)
	}
	sens := Sensitivity(Options{}, 0, 0)
	cross := sens.Cols[4]
	for want, v := range [][]float64{
		{90, 99, 99, 95}, // CE already below LS at 40 clients
		{96, 90, 99, 95},
		{96, 96, 90, 95},
		{96, 96, 96, 95}, // never
	} {
		if got := cross.Derive(Setting{}, cols(v...)); got != float64(want) {
			t.Errorf("crossover(%v) = %s, want %s", v, cross.Enum[int(got)], cross.Enum[want])
		}
	}
}

// TestRenderLayout pins the renderer's layout rules on a hand-built
// table: key column, separators, single and replicated cell forms,
// text-only and CSV-only columns, durations, enums, quoting.
func TestRenderLayout(t *testing.T) {
	s := &Study{
		Title:  "Layout",
		Note:   "(over %d replications)",
		Footer: "footer\n",
		Key:    Column{Head: "Key", CSV: "key", W: 6},
		Rows:   []Setting{{Name: "a"}, {Name: "b, c"}, {Name: "d", CSV: "4,d"}},
		Cols: []Column{
			rate("Rate", "rate", 8, 0, nil).withCI(14, "%.1f ± %.1f%%"),
			{Head: "Dur", CSV: "dur_s", Agg: MeanDur, W: 6, Text: "%v", CSVVerb: "%.4f", Sep: " | "},
			{Head: "TextOnly", W: 8, Text: "%.0f"},
			{CSV: "csv_only", CSVVerb: "%.1f"},
			{Head: "Pick", CSV: "pick", W: 5, Text: "%s", Enum: []string{"lo", "hi"}},
		},
		CSVMeanSuffix: "_mean",
	}
	tb := zeroTable(s, 1)
	tb.mean[0] = []float64{12.34, 1.2344e9, 3, 0.5, 1}
	tb.mean[1] = []float64{100, 15e6, 40, 1.5, 0}
	tb.ci[0][0], tb.ci[1][0] = 1.26, 0

	render := func() (string, string) {
		var text, csv strings.Builder
		tb.Render(&text)
		tb.CSV(&csv)
		return text.String(), csv.String()
	}
	text, csv := render()
	wantText := "Layout\n" +
		"Key        Rate |    Dur TextOnly  Pick\n" +
		"a         12.3% | 1.234s        3    hi\n" +
		"b, c     100.0% |   15ms       40    lo\n" +
		"d          0.0% |     0s        0    lo\n" +
		"footer\n"
	wantCSV := "key,rate,dur_s,csv_only,pick\n" +
		"a,12.34,1.2344,0.5,hi\n" +
		"\"b, c\",100.00,0.0150,1.5,lo\n" +
		"4,d,0.00,0.0000,0.0,lo\n"
	if text != wantText {
		t.Errorf("single-run text:\n%s\nwant:\n%s", text, wantText)
	}
	if csv != wantCSV {
		t.Errorf("single-run CSV:\n%s\nwant:\n%s", csv, wantCSV)
	}

	tb.Reps = 3
	text, csv = render()
	wantText = "Layout\n" +
		"(over 3 replications)\n" +
		"Key              Rate |    Dur TextOnly  Pick\n" +
		"a         12.3 ± 1.3% | 1.234s        3    hi\n" +
		"b, c     100.0 ± 0.0% |   15ms       40    lo\n" +
		"d          0.0 ± 0.0% |     0s        0    lo\n" +
		"footer\n"
	if text != wantText {
		t.Errorf("replicated text:\n%s\nwant:\n%s", text, wantText)
	}
	if want := "key,rate_mean,rate_ci,dur_s,csv_only,pick\na,12.34,1.26,1.2344,0.5,hi\n"; !strings.HasPrefix(csv, want) {
		t.Errorf("replicated CSV:\n%s\nwant prefix:\n%s", csv, want)
	}

	// CSVAlwaysCI writes the interval column for a single run too, under
	// the bare name.
	tb.Reps, s.CSVAlwaysCI = 1, true
	if _, csv = render(); !strings.HasPrefix(csv, "key,rate,rate_ci,dur_s,csv_only,pick\na,12.34,1.26,") {
		t.Errorf("always-CI CSV:\n%s", csv)
	}
}

// TestRenderTransposed pins the transposed form: one line per column,
// one field per row, and "-" in text where a counter belongs to another
// system.
func TestRenderTransposed(t *testing.T) {
	s := &Study{
		Title:      "Transposed",
		Key:        Column{CSV: "row", W: 8},
		Transposed: true,
		Rows:       []Setting{{Name: "CS-X", CSV: "cs", Kind: rtdbs.CS}, {Name: "LS-X", CSV: "ls", Kind: rtdbs.LS}},
		Cols: []Column{
			{Head: "sent", CSV: "sent", Agg: Sum, W: 6, Text: "%.0f", CSVVerb: "%.0f"},
			{Head: "hops", CSV: "hops", Agg: Sum, W: 6, Text: "%.0f", CSVVerb: "%.0f", Only: rtdbs.LS},
		},
	}
	tb := zeroTable(s, 1)
	tb.mean[0], tb.mean[1] = []float64{10, 0}, []float64{20, 5}
	var text, csv strings.Builder
	tb.Render(&text)
	tb.CSV(&csv)
	if want := "Transposed\n           CS-X   LS-X\nsent         10     20\nhops          -      5\n"; text.String() != want {
		t.Errorf("text:\n%s\nwant:\n%s", text.String(), want)
	}
	if want := "row,cs,ls\nsent,10,20\nhops,0,5\n"; csv.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", csv.String(), want)
	}
}
