package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"siteselect/internal/scenario"
)

// runScenarios executes .rts scenario files (one file, a directory, or
// both) and writes each report to out. When outDir is non-empty every
// report is also written there as <name>.golden — the same bytes the
// corpus goldens pin — so CI can diff a fresh batch against
// scenarios/golden. Directory runs skip scale-tier scenarios
// (population >= scenario.ScaleFloor) unless includeScale is set; a
// -scenario file is always run, whatever its size. The returned error
// is non-nil when any scenario fails to parse, compile, or run, or
// when any expect assertion fails.
func runScenarios(file, dir, outDir string, parallel int, includeScale bool, out io.Writer) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var scens []*scenario.Scenario
	if file != "" {
		s, err := scenario.Load(file)
		if err != nil {
			return err
		}
		scens = append(scens, s)
	}
	if dir != "" {
		batch, err := scenario.LoadDir(dir)
		if err != nil {
			return err
		}
		if !includeScale {
			everyday, scale := scenario.SplitScale(batch)
			for _, s := range scale {
				fmt.Fprintf(os.Stderr, "rtbench: skipping scale-tier scenario %s (%d clients); rerun with -scale-scenarios to include it\n",
					s.Name, s.Population())
			}
			batch = everyday
		}
		scens = append(scens, batch...)
	}
	reports, err := scenario.RunAll(scens, parallel)
	if err != nil {
		return err
	}
	failed := 0
	for i, r := range reports {
		if i > 0 {
			fmt.Fprintln(out)
		}
		io.WriteString(out, r.Format())
		if !r.Passed() {
			failed++
		}
	}
	if outDir != "" {
		if err := scenario.WriteReports(reports, outDir); err != nil {
			return err
		}
	}
	if failed > 0 {
		names := make([]string, 0, failed)
		for _, r := range reports {
			if !r.Passed() {
				names = append(names, r.Scenario.Name)
			}
		}
		return fmt.Errorf("%d scenario(s) failed expectations: %s", failed, strings.Join(names, ", "))
	}
	return nil
}
