package main

import (
	"flag"
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
		cfg := siteselect.DefaultConfig(4, 0.2).Scale(0.05)
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

// TestFlags drives run through each flag and asserts one line of its
// report. Every flag case's line is absent from the report of the same
// run without the flag, so it shows the flag reached the configuration;
// -invariants instead must leave the run as it was.
func TestFlags(t *testing.T) {
	base := []string{"-clients", "30", "-updates", "0.1", "-duration", "3m", "-warmup", "0", "-seed", "3", "-executors", "2"}
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
		{[]string{"-no-h1"}, "H1 rejections 0", false},
		{[]string{"-no-h2"}, "transactions shipped 6 (5 committed)", false},
		{[]string{"-no-decomposition"}, "LoadQuery 23", false},
		{[]string{"-no-forward-lists"}, "forward hops (c2c) 0", false},
		{[]string{"-no-downgrade"}, "Recall 286", false},
		{[]string{"-drop-rate", "0.05"}, "dropped 363", false},
		{[]string{"-dup-rate", "0.05"}, "duplicated 71", false},
		{[]string{"-spike-rate", "0.1"}, "latency spikes 717", false},
		{[]string{"-partition-site", "2", "-partition-at", "30s", "-partition-duration", "20s"}, "partition drops 36", false},
		{[]string{"-reps", "2"}, "LS-CS-RTDBS — 30 clients, 10% updates, 2 replications (master seed 3)", false},
		{[]string{"-msgtrace", "3"}, "Last 3 LAN messages:", false},
		{[]string{"-invariants"}, "committed 400 (75.05%)", true},
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
