package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"siteselect/internal/experiment"
)

// tiny keeps CLI tests fast.
var tiny = experiment.Options{Scale: 0.05, Seed: 1, Clients: []int{4}}

func TestRunExperimentsFigureText(t *testing.T) {
	var sb strings.Builder
	err := runExperiments(params{exp: "fig3", ablateN: 4, ablateU: 0.2}, tiny, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 3") || !strings.Contains(sb.String(), "LS-CS-RTDBS") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunExperimentsFigureCSVAndSVG(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := runExperiments(params{exp: "fig4", csv: true, svgDir: dir, ablateN: 4, ablateU: 0.2}, tiny, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "clients,ce,cs,ls") {
		t.Fatalf("csv output:\n%s", sb.String())
	}
	svg, err := os.ReadFile(filepath.Join(dir, "figure4.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Fatal("svg file malformed")
	}
}

func TestRunExperimentsReplicated(t *testing.T) {
	opts := tiny
	opts.Reps = 2
	var sb strings.Builder
	err := runExperiments(params{exp: "fig5", ablateN: 4, ablateU: 0.2}, opts, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "±") {
		t.Fatalf("replicated output missing CI:\n%s", sb.String())
	}
}

func TestRunExperimentsProtocol(t *testing.T) {
	var sb strings.Builder
	if err := runExperiments(params{exp: "protocol", ablateN: 4, ablateU: 0.2}, tiny, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2n+1") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunExperimentsAblations(t *testing.T) {
	for _, exp := range []string{
		"ablate-heuristics", "ablate-window", "ablate-downgrade",
		"ablate-writethrough", "ablate-logging", "outage", "policies",
	} {
		var sb strings.Builder
		if err := runExperiments(params{exp: exp, ablateN: 4, ablateU: 0.2}, tiny, &sb); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	var sb strings.Builder
	err := runExperiments(params{exp: "nope"}, tiny, &sb)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range studyIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error does not list %q: %v", id, err)
		}
	}
}

// TestTraceSummaryNeedsAFigure: -trace-summary used to be silently
// ignored by every id but the figures. A single non-figure id is now an
// error; -exp all still runs the others untraced.
func TestTraceSummaryNeedsAFigure(t *testing.T) {
	var sb strings.Builder
	err := runExperiments(params{exp: "protocol", traceSummary: true}, tiny, &sb)
	if err == nil || !strings.Contains(err.Error(), "trace-summary") || sb.Len() != 0 {
		t.Fatalf("err = %v, output:\n%s", err, sb.String())
	}
}

// TestCSVHonouredByEveryID: -csv used to be silently ignored by 13 of
// the 21 ids, which printed the text table instead.
func TestCSVHonouredByEveryID(t *testing.T) {
	for _, id := range []string{"protocol", "outage", "ablate-logging", "occ"} {
		var sb strings.Builder
		if err := runExperiments(params{exp: id, csv: true, ablateN: 4, ablateU: 0.2}, tiny, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		header, _, _ := strings.Cut(sb.String(), "\n")
		if !strings.Contains(header, ",") || strings.Contains(header, " ") {
			t.Errorf("%s -csv does not start with a CSV header:\n%s", id, sb.String())
		}
	}
}

// TestProfilesCoverScenarioRuns: -cpuprofile and -memprofile used to be
// dropped on the floor whenever -scenario or -scenario-dir was given.
func TestProfilesCoverScenarioRuns(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	err := run([]string{
		"-scenario", filepath.Join("..", "..", "scenarios", "scale_smoke.rts"),
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "scale_smoke") {
		t.Fatalf("scenario report missing:\n%s", sb.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestDocsListEveryStudy holds the two hand-written id lists to the
// registry: the "Experiment ids" paragraph of this command's doc comment
// names exactly experiment.Studies, in order, and EXPERIMENTS.md's
// per-experiment index has exactly one `rtbench -exp <id>` per study.
func TestDocsListEveryStudy(t *testing.T) {
	want := strings.Join(studyIDs(), " ")

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	_, ids, ok := strings.Cut(doc, "holds this list to it):")
	if !ok {
		t.Fatal("doc comment lost its experiment id list")
	}
	ids, _, _ = strings.Cut(ids, ".")
	if got := strings.Join(strings.Fields(strings.ReplaceAll(ids, "//", " ")), " "); got != want {
		t.Errorf("doc comment lists\n  %s\nregistry has\n  %s", got, want)
	}

	md, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(md), "## Per-experiment index")
	if !ok {
		t.Fatal("EXPERIMENTS.md lost its per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	var indexed []string
	for _, part := range strings.Split(index, "`rtbench -exp ")[1:] {
		id, _, _ := strings.Cut(part, "`")
		indexed = append(indexed, id)
	}
	sort.Strings(indexed)
	sorted := studyIDs()
	sort.Strings(sorted)
	if got, want := strings.Join(indexed, " "), strings.Join(sorted, " "); got != want {
		t.Errorf("EXPERIMENTS.md index lists\n  %s\nregistry has\n  %s", got, want)
	}
}
