package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// clearLines zeroes every position field so round-trip comparisons see
// only semantics, not where stanzas happened to sit in the file.
func clearLines(s *Scenario) {
	s.NameLine, s.SystemLine, s.SeedLine, s.ExpectLine = 0, 0, 0, 0
	clearBlock := func(b *Block) {
		if b == nil {
			return
		}
		b.Line = 0
		for i := range b.Settings {
			b.Settings[i].Line = 0
		}
	}
	clearBlock(s.Config)
	clearBlock(s.Faults)
	clearBlock(s.Replication)
	for ci := range s.Classes {
		cl := &s.Classes[ci]
		for i := range cl.Settings {
			cl.Settings[i].Line = 0
		}
		for pi := range cl.Arrivals {
			cl.Arrivals[pi].Line = 0
			for i := range cl.Arrivals[pi].Params {
				cl.Arrivals[pi].Params[i].Line = 0
			}
		}
		clearBlock(cl.Access)
	}
	for i := range s.Expects {
		s.Expects[i].Line = 0
	}
}

// FuzzScenarioParse checks the parser's two contracts on arbitrary
// input: it never panics, and any input it accepts round-trips — the
// canonical Format output reparses to the identical AST (up to line
// numbers) and reprinting is a fixed point.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.rts"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("scenario x\nseed -3\nclients a 2 {\n  arrivals {\n    phase open rate 1e-3 duration 90s\n  }\n}\n")
	f.Add("scenario x\nexpect {\n  messages ObjectShip >= 5 tol 0.5\n  miss_share queue ~ 0.5 tol 0.5\n}\n")
	f.Add("scenario x\nconfig {\n  a 5.\n  b nan\n  c 1e400\n  d 0x1p-2\n  e -1h2m3.5s\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse("fuzz.rts", src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		out := Format(s)
		s2, err := Parse("fuzz.rts", out)
		if err != nil {
			t.Fatalf("canonical output failed to reparse: %v\n--- output ---\n%s", err, out)
		}
		if out2 := Format(s2); out2 != out {
			t.Fatalf("Format is not a fixed point\n--- first ---\n%s--- second ---\n%s", out, out2)
		}
		clearLines(s)
		clearLines(s2)
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed the AST\n--- input ---\n%s--- canonical ---\n%s\n%#v\nvs\n%#v", src, out, s, s2)
		}
	})
}
