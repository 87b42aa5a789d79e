package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the scenario corpus goldens")

const corpusDir = "../../scenarios"

// loadCorpus loads the everyday corpus: every committed scenario below
// ScaleFloor clients. Scale-tier scenarios are covered by
// TestCorpusScale instead.
func loadCorpus(t *testing.T) []*Scenario {
	t.Helper()
	scens, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	everyday, _ := SplitScale(scens)
	if len(everyday) < 10 {
		t.Fatalf("corpus has %d everyday scenarios, want at least 10", len(everyday))
	}
	return everyday
}

func runCorpus(t *testing.T, parallel int) []*Report {
	t.Helper()
	reports, err := RunAll(loadCorpus(t), parallel)
	if err != nil {
		t.Fatalf("running corpus: %v", err)
	}
	return reports
}

// checkGolden pins one report byte for byte against
// scenarios/golden/<name>.golden, rewriting it under -update.
func checkGolden(t *testing.T, r *Report) {
	t.Helper()
	name := r.Scenario.Name
	got := r.Format()
	path := filepath.Join(corpusDir, "golden", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("updating %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", name, err)
	}
	if got != string(want) {
		t.Errorf("%s: report differs from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
	if !r.Passed() {
		t.Errorf("%s: scenario failed its expectations", name)
	}
}

// TestCorpusGoldens runs every committed everyday scenario under the
// invariant monitor and pins each report byte for byte against
// scenarios/golden/<name>.golden; go test ./internal/scenario -run
// TestCorpusGoldens -update rewrites them. The monitor only watches, so
// the reports are those of unmonitored runs, and they embed the expect
// verdicts: a golden match also means every assertion held.
func TestCorpusGoldens(t *testing.T) {
	scens := loadCorpus(t)
	for _, s := range scens {
		setConfig(s, "invariants", Value{Kind: ValWord, Word: "true"})
	}
	reports, err := RunAll(scens, 8)
	if err != nil {
		t.Fatalf("running corpus: %v", err)
	}
	for _, r := range reports {
		checkGolden(t, r)
	}
}

// TestCorpusScale runs the scale-tier scenarios (population >=
// ScaleFloor) with the same golden pinning as TestCorpusGoldens. The
// big one simulates a million clients — minutes of wall clock and tens
// of gigabytes of heap — so the test is opt-in: set RTS_SCALE=1 (or
// pass -update, which is already a deliberate full-corpus rebuild) to
// run it.
func TestCorpusScale(t *testing.T) {
	if os.Getenv("RTS_SCALE") == "" && !*update {
		t.Skip("set RTS_SCALE=1 (or -update) to run the scale-tier scenarios; scale_1m needs tens of GB and minutes of wall clock")
	}
	scens, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	_, scale := SplitScale(scens)
	if len(scale) == 0 {
		t.Fatal("no scale-tier scenarios in corpus")
	}
	reports, err := RunAll(scale, 1)
	if err != nil {
		t.Fatalf("running scale tier: %v", err)
	}
	for _, r := range reports {
		checkGolden(t, r)
	}
}

// TestCorpusDeterminism reruns the corpus at different worker counts
// and again at the same count: every report must be byte-identical.
// Scenario seeds are derived from scenario names alone, so neither
// batch order nor scheduling may leak into results.
func TestCorpusDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("rerunning the corpus three times is not -short work")
	}
	base := runCorpus(t, 1)
	for _, parallel := range []int{8, 8} {
		other := runCorpus(t, parallel)
		for i, r := range base {
			if got, want := other[i].Format(), r.Format(); got != want {
				t.Errorf("%s: -parallel %d report differs from -parallel 1\n--- got ---\n%s--- want ---\n%s",
					r.Scenario.Name, parallel, got, want)
			}
		}
	}
}
