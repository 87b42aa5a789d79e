package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"siteselect/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenOpts pins everything that feeds the output: scale, master seed,
// client sweep, and replication count. Parallel is deliberately > 1 —
// the golden file also guards the determinism of the worker pool.
var goldenOpts = experiment.Options{
	Scale: 0.05, Seed: 7, Clients: []int{4, 6}, Reps: 3, Parallel: 4,
}

// at is goldenOpts with settings; the goldens reach their 4-, 6- and
// 400-client points through clients= and updates=.
func at(set ...string) experiment.Options {
	o := goldenOpts
	o.Set = set
	return o
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenReplicatedFigure locks down the CLI output of a small
// replicated parallel sweep: the text rendering with mean ± 95% CI
// columns and the corresponding CSV. Any change to seed derivation,
// cell ordering, aggregation, or formatting shows up as a diff here.
func TestGoldenReplicatedFigure(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "fig3"}, at("clients=4", "updates=0.2"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_replicated.golden", text.String())

	var csv strings.Builder
	if err := runExperiments(params{exp: "fig3", csv: true}, at("clients=4", "updates=0.2"), &csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_replicated_csv.golden", csv.String())
}

// TestGoldenOutageStudy locks down the generalized outage table: the
// legacy three variants plus the fault-layer partition variants, with
// replicated mean ± CI aggregation. The first three rows must stay
// byte-for-byte what the pre-fault-layer study produced.
func TestGoldenOutageStudy(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "outage"}, at("clients=4", "updates=0.2"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "outage_replicated.golden", text.String())
}

// TestGoldenTraceSummary locks down the aggregate miss-cause table of
// the traced figure sweep — both the low-contention Figure 3 mix and the
// update-heavy Figure 5 mix (which actually populates the cause
// columns), plus the CSV form. Beyond formatting, this pins the
// determinism of the whole trace layer under the parallel worker pool:
// any drift in event emission, attribution bucketing, or dominant-cause
// classification shows up as a diff here.
func TestGoldenTraceSummary(t *testing.T) {
	var fig3 strings.Builder
	if err := runExperiments(params{exp: "fig3", traceSummary: true}, at("clients=4", "updates=0.2"), &fig3); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_trace_summary.golden", fig3.String())

	var fig5 strings.Builder
	if err := runExperiments(params{exp: "fig5", traceSummary: true}, at("clients=4", "updates=0.2"), &fig5); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_trace_summary.golden", fig5.String())

	var csv strings.Builder
	if err := runExperiments(params{exp: "fig5", traceSummary: true, csv: true}, at("clients=4", "updates=0.2"), &csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_trace_summary_csv.golden", csv.String())
}

// TestGoldenBatchSweep locks down the batch-window sweep table and CSV:
// the unbatched window-0 baseline row and the windowed rows, replicated
// and run on the parallel worker pool. Any drift in how the batching
// layer perturbs the simulation — or in how the sweep aggregates the
// miss census and the server's batch counters — shows up as a diff
// here.
func TestGoldenBatchSweep(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "batch-sweep"}, at("clients=6", "updates=0.2"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch_sweep.golden", text.String())

	var csv strings.Builder
	if err := runExperiments(params{exp: "batch-sweep", csv: true}, at("clients=6", "updates=0.2"), &csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch_sweep_csv.golden", csv.String())
}

// TestGoldenShardSweep locks down the topology study at ten times the
// paper's largest client population: the static-vs-adaptive placement
// table across shard counts and its CSV. Beyond formatting, this pins
// the sharded server tier end to end — the block-cyclic partition, the
// heat-driven replica install/shed cycle, and the claim the table
// exists to make: adaptive replication beats static placement on a
// drifting hot spot at every multi-shard point.
func TestGoldenShardSweep(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "shard-sweep"}, at("clients=400", "updates=0"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shard_sweep.golden", text.String())

	var csv strings.Builder
	if err := runExperiments(params{exp: "shard-sweep", csv: true}, at("clients=400", "updates=0"), &csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shard_sweep_csv.golden", csv.String())
}

// TestGoldenFaultMatrix locks down the fault-injection matrix rendering
// and its determinism across the worker pool.
func TestGoldenFaultMatrix(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "faults"}, at("clients=4", "updates=0.2"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faults_replicated.golden", text.String())
}

// TestGoldenCCComparison locks down the concurrency-control study: strict
// 2PL against backward-validation OCC on the centralized system, with the
// OCC restart count and validation conflict rate. The golden was generated
// while CE-OCC still ran on goroutine processes; it is the proof that the
// machine port changed nothing an experiment can observe.
func TestGoldenCCComparison(t *testing.T) {
	var text strings.Builder
	if err := runExperiments(params{exp: "occ"}, at("clients=4", "updates=0.2"), &text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "occ.golden", text.String())
}

// csvIDs are the experiment ids that honoured -csv before every id did.
var csvIDs = []string{"fig3", "fig4", "fig5", "table2", "table3", "table4", "batch-sweep", "shard-sweep"}

// TestGoldenAll pins the text of every experiment id, in `-exp all`
// order, and the CSV of every id that has one — both replicated (mean ±
// CI branches) and single-run (the plain branches). The goldens were
// generated while each study still had its own hand-written driver and
// renderer; they are the proof that the study engine reproduces all of
// them byte for byte.
func TestGoldenAll(t *testing.T) {
	for _, reps := range []int{3, 1} {
		opts := at("clients=6", "updates=0.2")
		opts.Reps = reps
		suffix := map[int]string{3: "reps3", 1: "reps1"}[reps]

		var text strings.Builder
		if err := runExperiments(params{exp: "all"}, opts, &text); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "all_"+suffix+".golden", text.String())

		var csv strings.Builder
		for _, id := range csvIDs {
			if err := runExperiments(params{exp: id, csv: true}, opts, &csv); err != nil {
				t.Fatal(err)
			}
		}
		checkGolden(t, "csv_"+suffix+".golden", csv.String())

		// Every id has a CSV since the study engine; these were added with
		// that fix and pin the thirteen that had none before.
		var allCSV strings.Builder
		if err := runExperiments(params{exp: "all", csv: true}, opts, &allCSV); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "all_csv_"+suffix+".golden", allCSV.String())
	}
}
