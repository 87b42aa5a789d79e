package main

import (
	"fmt"
	"os"

	"siteselect/internal/scenario"
)

// runScenario runs one .rts scenario file and prints its report (the
// same bytes rtbench pins in scenarios/golden) followed by the full
// single-run metric dump. The scenario text fixes the system, workload,
// and seed, so the other command-line flags do not apply.
func runScenario(path string) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(s)
	if err != nil {
		return err
	}
	os.Stdout.WriteString(rep.Format())
	fmt.Println()

	dump(os.Stdout, rep.Compiled.Kind, rep.Result)
	if !rep.Passed() {
		return fmt.Errorf("scenario %s failed expectations", s.Name)
	}
	return nil
}
