package experiment

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// studyCase is one registered study's entry in the table TestStudies
// drives: the tiny operating point it runs at and the assertions that
// are specific to it. Every study also gets the generic checks of
// checkStudy.
type studyCase struct {
	// u is the update mix for studies that run at one operating point
	// (default 20%; always 6 clients); clients is the sweep for those
	// that take a sweep (default 4, 8).
	u       float64
	clients []int
	// slow marks studies that sweep to 100 clients whatever the options
	// say; they are skipped under -short.
	slow bool
	// rows is the expected row count; names, when set, the row names in
	// order.
	rows  int
	names []string
	// text lists substrings the text rendering must contain; csvHeader
	// is a prefix of the CSV header line.
	text      []string
	csvHeader string
	check     func(t *testing.T, tb *Table)
}

// inPercent fails unless every listed column of every row is a
// percentage.
func inPercent(t *testing.T, tb *Table, cols ...int) {
	t.Helper()
	for ri := range tb.Rows {
		for _, c := range cols {
			if v := tb.Value(ri, c); v < 0 || v > 100 {
				t.Errorf("row %q column %d = %v, outside 0-100", tb.Rows[ri].Name, c, v)
			}
		}
	}
}

func figureCase(name string) studyCase {
	return studyCase{
		rows: 2, names: []string{"4", "8"},
		text:      []string{name, "CE-RTDBS", "CS-RTDBS", "LS-CS-RTDBS"},
		csvHeader: "clients,ce,cs,ls\n",
		check:     func(t *testing.T, tb *Table) { inPercent(t, tb, 0, 1, 2) },
	}
}

var studyCases = map[string]studyCase{
	"fig3": figureCase("Figure 3"),
	"fig4": figureCase("Figure 4"),
	"fig5": figureCase("Figure 5"),
	"table2": {
		slow: true, rows: 3, text: []string{"Cache Hit Rates"}, csvHeader: "clients,cs_1,cs_5,cs_20,ls_1,ls_5,ls_20\n",
		check: func(t *testing.T, tb *Table) { inPercent(t, tb, 0, 1, 2, 3, 4, 5) },
	},
	"table3": {
		slow: true, rows: 3, text: []string{"Response Times"}, csvHeader: "clients,cs_sl,cs_el,ls_sl,ls_el\n",
		check: func(t *testing.T, tb *Table) {
			for ri := range tb.Rows {
				if sl := tb.Value(ri, 0); sl <= 0 || sl > 10 {
					t.Errorf("suspicious CS SL response %v s", sl)
				}
			}
		},
	},
	"table4": {
		slow: true, rows: 2, names: []string{"CS-RTDBS", "LS-CS-RTDBS"},
		text: []string{"Forward Lists"}, csvHeader: "row,cs,ls\nobject_requests,",
		check: func(t *testing.T, tb *Table) {
			if tb.Value(0, 0) == 0 || tb.Value(1, 0) == 0 {
				t.Errorf("request counts = %v/%v", tb.Value(0, 0), tb.Value(1, 0))
			}
			var csv strings.Builder
			tb.CSV(&csv)
			if !strings.Contains(csv.String(), "\nforward_list_hops,0,") {
				t.Errorf("CS forward-list hops not 0 in CSV:\n%s", csv.String())
			}
		},
	},
	"protocol": {
		rows: 5, text: []string{"2n+1", "Figure 1 (callback locking):", "Figure 2 (lock grouping):"},
		csvHeader: "n,two_pl,callback,grouped\n1,3,4,3\n2,6,8,5\n",
	},
	"patterns": {
		u: 0.10, rows: 3, names: []string{"localized-rw", "uniform", "hot-cold"},
		check: func(t *testing.T, tb *Table) { inPercent(t, tb, 0, 1, 2, 3, 4) },
	},
	"occ": {
		clients: []int{6}, rows: 2, // one client count x two update mixes
		text: []string{"2PL", "OCC"}, csvHeader: "clients,updates,two_pl,occ,restarts,conflict_rate\n6,0.01,",
	},
	"speculation": {clients: []int{6}, rows: 2, text: []string{"LS+spec"}},
	"outage": {
		names:     []string{"no fault", "outage, no log", "outage, client WAL", "partition, no wipe", "server partition"},
		csvHeader: "variant,success,lost_updates,log_forces\nno fault,",
		check: func(t *testing.T, tb *Table) {
			if tb.Value(2, 2) == 0 {
				t.Error("WAL variant recorded no forces")
			}
		},
	},
	"batch-sweep": {
		rows: 3, names: []string{"0s", "250ms", "1s"},
		text:      []string{"Batch-window sweep", "lock-wait"},
		csvHeader: "window_ms,success,success_ci,missed,lock_wait,lock_wait_share,messages,flushes,batched\n0,",
		check: func(t *testing.T, tb *Table) {
			if tb.Value(0, 6) != 0 || tb.Value(0, 7) != 0 {
				t.Errorf("unbatched baseline recorded flushes %v, batched %v", tb.Value(0, 6), tb.Value(0, 7))
			}
			if tb.Value(1, 6) == 0 {
				t.Error("windowed row recorded no flushes")
			}
			inPercent(t, tb, 0, 3)
			for ri := range tb.Rows {
				if share := tb.Value(ri, 4); share < 0 || share > 1 {
					t.Errorf("lock-wait share %v out of range", share)
				}
			}
		},
	},
	"shard-sweep": {
		rows: 4, text: []string{"Shard-count sweep"},
		csvHeader: "shards,static,static_ci,adaptive,adaptive_ci,static_msgs,adaptive_msgs,installed,shed,forwarded\n1,",
		check: func(t *testing.T, tb *Table) {
			if tb.Value(0, 0) != tb.Value(0, 1) || tb.Value(0, 4) != 0 {
				t.Error("adaptive placement differs from static at one server")
			}
		},
	},
	"faults":      {rows: 7, text: []string{"drop 0%", "partition 30s"}},
	"policies":    {rows: 4, text: []string{"FCFS"}},
	"sensitivity": {slow: true, rows: 4, text: []string{"crossover", "clients"}},
	"ablate-heuristics": {
		names:     []string{"all-off (=CS)", "H1 only", "H2 only", "decomposition only", "forward lists only", "all-on (=LS)"},
		csvHeader: "variant,success,cache_hit,shipped,decomposed,migrations,el_resp_s\nall-off (=CS),",
	},
	"ablate-window":       {names: []string{"window=0s", "window=100ms", "window=500ms", "window=2s"}},
	"ablate-downgrade":    {names: []string{"downgrade on", "downgrade off"}},
	"ablate-writethrough": {names: []string{"write-back (paper)", "write-through"}},
	"ablate-logging":      {names: []string{"no logging (paper)", "client WAL + group commit"}},
}

// checkStudy runs one registered study at its case's tiny operating
// point, serially and on eight workers, and checks what holds for every
// study — it runs, has rows, renders byte-identically for any worker
// count, its text names every declared column and row, and its CSV has
// the declared shape — then the case's own assertions.
func checkStudy(t *testing.T, id string) {
	t.Helper()
	tc, ok := studyCases[id]
	if !ok {
		t.Fatalf("study %q has no case in studyCases", id)
	}
	if tc.slow && testing.Short() {
		t.Skip("sweeps to 100 clients")
	}
	var def Def
	for _, d := range Studies {
		if d.ID == id {
			def = d
		}
	}
	if def.Declare == nil {
		t.Fatalf("study %q is not registered", id)
	}
	u, clients := 0.20, []int{4, 8}
	if tc.u != 0 {
		u = tc.u
	}
	if tc.clients != nil {
		clients = tc.clients
	}
	render := func(parallel int) (*Table, string, string) {
		opts := Options{Scale: 0.05, Seed: 1, Clients: clients, Parallel: parallel, Set: []string{"clients=6", fmt.Sprintf("updates=%g", u)}}
		tb, err := def.Declare(opts).Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var text, csv strings.Builder
		tb.Render(&text)
		tb.CSV(&csv)
		return tb, text.String(), csv.String()
	}
	tb, text, csvOut := render(1)
	if _, text8, csv8 := render(8); text != text8 || csvOut != csv8 {
		t.Errorf("output differs across worker counts:\n-- parallel=1 --\n%s%s-- parallel=8 --\n%s%s", text, csvOut, text8, csv8)
	}

	if len(tb.Rows) == 0 || tc.rows != 0 && len(tb.Rows) != tc.rows {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), tc.rows)
	}
	for i, want := range tc.names {
		if i >= len(tb.Rows) || tb.Rows[i].Name != want {
			t.Fatalf("row names = %v, want %v", tb.Rows, tc.names)
		}
	}
	for _, row := range tb.Rows {
		if !strings.Contains(text, row.Name) {
			t.Errorf("text lacks row %q:\n%s", row.Name, text)
		}
	}
	textCols, csvCols := 0, strings.Count(tb.Key.CSV, ",")+1
	for _, c := range tb.Cols {
		if c.Head != "" {
			textCols++
			if !strings.Contains(text, c.Head) {
				t.Errorf("text lacks column %q:\n%s", c.Head, text)
			}
		}
		if c.CSV != "" {
			csvCols++
		}
		if c.CIText != "" && tb.CSVAlwaysCI {
			csvCols++
		}
	}
	// csvCols counts the key field(s) too.
	textLines, csvLines, csvFields := 2+len(tb.Rows), 1+len(tb.Rows), csvCols
	if tb.Transposed {
		textLines, csvLines, csvFields = 2+textCols, csvCols, 1+len(tb.Rows)
	}
	if got := strings.Count(text, "\n") - strings.Count(tb.Footer, "\n"); got != textLines {
		t.Errorf("text has %d lines before the footer, want %d:\n%s", got, textLines, text)
	}
	// ReadAll also rejects records whose field count differs from the
	// header's.
	records, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, csvOut)
	}
	if len(records) != csvLines || len(records[0]) != csvFields {
		t.Errorf("CSV is %d records x %d fields, want %d x %d:\n%s", len(records), len(records[0]), csvLines, csvFields, csvOut)
	}

	for _, want := range tc.text {
		if !strings.Contains(text, want) {
			t.Errorf("text lacks %q:\n%s", want, text)
		}
	}
	if !strings.HasPrefix(csvOut, tc.csvHeader) {
		t.Errorf("CSV does not start with %q:\n%s", tc.csvHeader, csvOut)
	}
	if tc.check != nil {
		tc.check(t, tb)
	}
}

// TestStudies drives every registered study through checkStudy. A study
// appended to Studies without a case in studyCases fails here.
func TestStudies(t *testing.T) {
	for _, def := range Studies {
		t.Run(def.ID, func(t *testing.T) { checkStudy(t, def.ID) })
	}
	if len(studyCases) != len(Studies) {
		t.Errorf("%d cases for %d studies", len(studyCases), len(Studies))
	}
}

// The per-study tests that predate the registry keep their names (CI
// history and the test floor key on them); each is now one row of
// studyCases.
func TestRunFigureShape(t *testing.T)        { checkStudy(t, "fig4") }
func TestTables2And3Run(t *testing.T)        { checkStudy(t, "table2"); checkStudy(t, "table3") }
func TestTable4Runs(t *testing.T)            { checkStudy(t, "table4") }
func TestHeuristicAblationRuns(t *testing.T) { checkStudy(t, "ablate-heuristics") }
func TestWindowAblationRuns(t *testing.T)    { checkStudy(t, "ablate-window") }
func TestDowngradeAblationRuns(t *testing.T) { checkStudy(t, "ablate-downgrade") }
func TestPatternSweepRuns(t *testing.T)      { checkStudy(t, "patterns") }
func TestCCComparisonRuns(t *testing.T)      { checkStudy(t, "occ") }
func TestSpeculationStudyRuns(t *testing.T)  { checkStudy(t, "speculation") }
func TestBatchSweepRuns(t *testing.T)        { checkStudy(t, "batch-sweep") }
func TestOutageStudyRuns(t *testing.T)       { checkStudy(t, "outage") }
func TestSensitivityRuns(t *testing.T)       { checkStudy(t, "sensitivity") }
func TestPolicyStudyRuns(t *testing.T)       { checkStudy(t, "policies") }

// onePoint lists the studies that run at one operating point, which
// Options.Set moves.
var onePoint = []string{
	"patterns", "outage", "batch-sweep", "shard-sweep", "faults", "policies",
	"ablate-heuristics", "ablate-window", "ablate-downgrade", "ablate-writethrough", "ablate-logging",
}

// TestSetMovesOnlyDeclaredPoints holds clients= and updates= settings to
// the studies that run at one point: each runs every cell at the point
// the settings name and says so in its title, and every other study's
// cells keep the client count and update share its declaration gives
// them.
func TestSetMovesOnlyDeclaredPoints(t *testing.T) {
	points := func(s *Study, o Options) (cells [][2]float64) {
		o = o.normalize()
		if s.Once {
			o.Reps = 1
		}
		for i := range len(s.Rows) * len(s.Runs) * o.Reps {
			_, cfg, err := s.cell(o, i)
			if err != nil {
				t.Fatalf("%s cell %d: %v", s.Name, i, err)
			}
			cells = append(cells, [2]float64{float64(cfg.NumClients), cfg.UpdateFraction})
		}
		return cells
	}
	plain := Options{Scale: 0.05, Reps: 2}
	moved := plain
	moved.Set = []string{"clients=5", "updates=0.1"}
	for _, def := range Studies {
		declares := []func(Options) *Study{def.Declare}
		if def.Traced != nil {
			declares = append(declares, def.Traced)
		}
		for _, declare := range declares {
			s := declare(moved)
			got := points(s, moved)
			if !slices.Contains(onePoint, def.ID) {
				if want := points(declare(plain), plain); !slices.Equal(got, want) {
					t.Errorf("%s: settings moved its cells to %v, want %v", s.Name, got, want)
				}
				continue
			}
			if !strings.Contains(s.Title, "5 clients, 10% updates") {
				t.Errorf("%s: title %q does not name the moved point", def.ID, s.Title)
			}
			if len(got) == 0 {
				t.Errorf("%s: no cells", def.ID)
			}
			for _, p := range got {
				if p != [2]float64{5, 0.1} {
					t.Errorf("%s: a cell runs at %v clients and updates, want 5 and 0.1", def.ID, p)
					break
				}
			}
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1 || o.Seed != 1 || len(o.Clients) != len(DefaultClients) {
		t.Fatalf("normalized = %+v", o)
	}
	o = Options{Scale: 5}.normalize()
	if o.Scale != 1 {
		t.Fatalf("out-of-range scale kept: %v", o.Scale)
	}
}

func TestProtocolCounts(t *testing.T) {
	counts, err := Protocol([]int{1, 2, 10}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]float64{{3, 4, 3}, {6, 8, 5}, {30, 40, 21}} // 2PL, callback, grouped
	for ri, w := range want {
		for ci, v := range w {
			if got := counts.Value(ri, ci); got != v {
				t.Fatalf("counts[%d][%d] = %v, want %v", ri, ci, got, v)
			}
		}
	}
	var sb strings.Builder
	counts.Render(&sb)
	if !strings.Contains(sb.String(), "callback locking") || !strings.Contains(sb.String(), "\n10 ") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}

func TestReplicatedFigure(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Clients: []int{4}, Reps: 3}
	rf, err := Figure("Figure R", 0.05, o).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Reps != 3 || len(rf.Rows) != 1 {
		t.Fatalf("shape = %d reps, %d rows", rf.Reps, len(rf.Rows))
	}
	var sb strings.Builder
	rf.Render(&sb)
	if !strings.Contains(sb.String(), "Figure R") || !strings.Contains(sb.String(), "±") {
		t.Fatalf("render output:\n%s", sb.String())
	}
	sb.Reset()
	rf.CSV(&sb)
	if !strings.HasPrefix(sb.String(), "clients,ce_mean,ce_ci,cs_mean,cs_ci,ls_mean,ls_ci\n4,") {
		t.Fatalf("csv output:\n%s", sb.String())
	}
	if c := rf.Chart(); len(c.Series) != 3 || len(c.Series[0].CI) != 1 || c.X[0] != 4 {
		t.Fatalf("chart = %+v", c)
	}
}

// TestTableCSVHeaders checks the paper tables' CSV headers without
// running them (their cells sweep to 100 clients).
func TestTableCSVHeaders(t *testing.T) {
	for _, c := range []struct {
		study *Study
		want  string
	}{
		{Table2(), "clients,cs_1,cs_5,cs_20,ls_1,ls_5,ls_20\n20,0.00,"},
		{Table3(), "clients,cs_sl,cs_el,ls_sl,ls_el\n20,0.0000,"},
		{Table4(), "row,cs,ls\nobject_requests,0,0\nobjects_sent,0,0\nforward_list_hops,0,0\n"},
	} {
		var sb strings.Builder
		zeroTable(c.study, 1).CSV(&sb)
		if !strings.HasPrefix(sb.String(), c.want) {
			t.Errorf("%s csv:\n%s", c.study.Name, sb.String())
		}
	}
}
