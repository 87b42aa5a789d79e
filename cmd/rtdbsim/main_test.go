package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"siteselect"
	"siteselect/internal/rtdbs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDump pins the single-run metric dump, every section and
// counter of it, for a small basic client-server run and a small
// load-sharing run: 4 clients, 20 % updates, 1/20 of the default
// length, seed 7.
func TestGoldenDump(t *testing.T) {
	for _, system := range []string{"cs", "ls"} {
		kind, ok := rtdbs.ParseKind(system)
		if !ok {
			t.Fatalf("unknown system %q", system)
		}
		cfg := siteselect.DefaultConfig(kind, 4, 0.2).Scale(0.05)
		cfg.Seed = 7
		res, err := siteselect.Run(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		dump(&out, kind, res)

		path := filepath.Join("testdata", "dump_"+system+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if out.String() != string(want) {
			t.Errorf("dump differs from %s (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s",
				path, out.String(), want)
		}
	}
}

// TestFlags drives run through each flag and -set key and asserts one
// line of its report. Every case's line is absent from the report of the
// same run without it, so it shows the setting reached the
// configuration; invariants=on instead must leave the run as it was.
func TestFlags(t *testing.T) {
	base := []string{"-set", "clients=30", "-seed", "3", "-set", "updates=0.1,duration=3m,warmup=0", "-set", "executors=2"}
	report := func(args ...string) (string, error) {
		var out strings.Builder
		err := run(append(append([]string{}, base...), args...), &out)
		return out.String(), err
	}
	// has reports whether out holds line, spacing aside.
	has := func(out, line string) bool {
		want := strings.Join(strings.Fields(line), " ")
		for _, l := range strings.Split(out, "\n") {
			if strings.Join(strings.Fields(l), " ") == want {
				return true
			}
		}
		return false
	}
	plain, err := report()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		line string
		same bool // the line is in the plain report too
	}{
		{[]string{"-system", "ce"}, "CE-RTDBS — 30 clients, 10% updates, 5m0s virtual time (seed 3)", false},
		{[]string{"-system", "ce-occ"}, "CE-RTDBS/OCC — 30 clients, 10% updates, 5m0s virtual time (seed 3)", false},
		{[]string{"-system", "cs"}, "CS-RTDBS — 30 clients, 10% updates, 5m0s virtual time (seed 3)", false},
		{[]string{"-system", "ls"}, "LS-CS-RTDBS — 30 clients, 10% updates, 5m0s virtual time (seed 3)", true},
		{[]string{"-set", "h1=off"}, "H1 rejections 0", false},
		{[]string{"-set", "h2=off"}, "transactions shipped 6 (5 committed)", false},
		{[]string{"-set", "decomposition=off"}, "LoadQuery 23", false},
		{[]string{"-set", "forward-lists=off"}, "forward hops (c2c) 0", false},
		{[]string{"-set", "downgrade=off"}, "Recall 286", false},
		{[]string{"-set", "drop=0.05"}, "dropped 363", false},
		{[]string{"-set", "dup=0.05"}, "duplicated 71", false},
		{[]string{"-set", "spike-rate=0.1,spike-latency=5ms"}, "latency spikes 717", false},
		{[]string{"-set", "partition-site=2,partition-at=30s,partition-duration=20s"}, "partition drops 36", false},
		{[]string{"-reps", "2"}, "LS-CS-RTDBS — 30 clients, 10% updates, 2 replications (master seed 3)", false},
		{[]string{"-msgtrace", "3"}, "Last 3 LAN messages:", false},
		{[]string{"-set", "invariants=on"}, "committed 400 (75.05%)", true},
	} {
		name := strings.Join(tc.args, " ")
		out, err := report(tc.args...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !has(out, tc.line) {
			t.Errorf("%s: no line %q in\n%s", name, tc.line, out)
		}
		if has(plain, tc.line) != tc.same {
			t.Errorf("%s: line %q in the plain report is %v, want %v", name, tc.line, !tc.same, tc.same)
		}
	}
	if _, err := report("-system", "db2"); err == nil || !strings.Contains(err.Error(), `unknown -system "db2"`) {
		t.Errorf("-system db2: err = %v, want an unknown-system error", err)
	}
}

// TestFlagErrors holds run to rejecting a flag the chosen run would
// ignore, and a -set the key table or the configuration refuses, each
// with an error that names the flag.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "f.rts", "-seed", "40"}, "-seed does not apply to -scenario"},
		{[]string{"-scenario", "f.rts", "-set", "h1=off"}, "-set does not apply to -scenario"},
		{[]string{"-trace", "x.json", "-reps", "3"}, "-reps and -trace: give at most one"},
		{[]string{"-trace", "x.json", "-msgtrace", "5"}, "-msgtrace and -trace: give at most one"},
		{[]string{"-msgtrace", "5", "-reps", "2"}, "-msgtrace and -reps: give at most one"},
		{[]string{"-parallel", "2"}, "-parallel applies only with -reps"},
		{[]string{"-set", "bogus=1"}, `-set: unknown key "bogus"`},
		{[]string{"-set", "h1"}, `-set: setting "h1": want key=value`},
		{[]string{"-set", "updates=lots"}, `-set: updates wants a number, got "lots"`},
		{[]string{"-set", "spike-rate=0.1"}, "SpikeLatency must be positive"},
	} {
		name := strings.Join(tc.args, " ")
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestScenarioDumpsEverySystem runs a scenario that compares three
// systems: the output is its corpus report, then one dump per system
// in list order.
func TestScenarioDumpsEverySystem(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	var out strings.Builder
	if err := run([]string{"-scenario", filepath.Join(dir, "quickstart.rts")}, &out); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(dir, "golden", "quickstart.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dumps, ok := strings.CutPrefix(out.String(), string(golden))
	if !ok {
		t.Fatalf("output does not start with quickstart.golden:\n%s", out.String())
	}
	var heads []string
	for _, line := range strings.Split(dumps, "\n") {
		if head, _, ok := strings.Cut(line, " — 12 clients"); ok {
			heads = append(heads, head)
		}
	}
	if want := []string{"CE-RTDBS", "CS-RTDBS", "LS-CS-RTDBS"}; strings.Join(heads, ",") != strings.Join(want, ",") {
		t.Errorf("dumps of %v, want %v", heads, want)
	}
}
