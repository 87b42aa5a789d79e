package main

import (
	"os"
	"regexp"
	"testing"
)

// TestStocktraderComparesMarkets runs the example end to end: a row for
// each market.
func TestStocktraderComparesMarkets(t *testing.T) {
	lines(t, stdout(t),
		`calm \(5% fills\)( +\d+\.\d%){2} +\d+ +\d+`,
		`frantic \(25% fills\)( +\d+\.\d%){2} +\d+ +\d+`,
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
