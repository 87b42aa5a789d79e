package main

import (
	"os"
	"regexp"
	"testing"
)

// TestLockprotoPrintsMessageTotals runs the command end to end: the
// closed-form counts, then the live comparison down to its total row.
func TestLockprotoPrintsMessageTotals(t *testing.T) {
	lines(t, stdout(t),
		`total messages +\d+ +\d+`,
		`success: CS \d+\.\d%  LS \d+\.\d%`,
	)
}

// stdout runs main with os.Stdout sent to a file and returns what it
// printed.
func stdout(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// lines fails t unless every pattern matches a line of out.
func lines(t *testing.T, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p + `$`).MatchString(out) {
			t.Errorf("no line matches %q in:\n%s", p, out)
		}
	}
}
