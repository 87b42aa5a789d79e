package main

import (
	"fmt"
	"io"

	"siteselect/internal/scenario"
)

// runScenario runs one .rts scenario file and prints its report (the
// same bytes rtbench pins in scenarios/golden) followed by the full
// single-run metric dump of each system it lists. The scenario text
// fixes the systems, workload, and seed, so the other command-line
// flags do not apply.
func runScenario(w io.Writer, path string) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep.Format())
	for i, c := range rep.Cells {
		if i > 0 {
			fmt.Fprintln(w)
		}
		dump(w, c.Kind, c.Result)
	}
	if !rep.Passed() {
		return fmt.Errorf("scenario %s failed expectations", s.Name)
	}
	return nil
}
