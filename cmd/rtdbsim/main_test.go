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
