package scenario

import (
	"fmt"
	"strings"
)

// Format renders the scenario in canonical form: fixed stanza order
// (scenario, system, seed, config, clients, faults, replication,
// expect), two-space indent per block level. Parsing the output yields an AST identical to
// s up to line numbers — the round-trip FuzzScenarioParse checks.
func Format(s *Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	if s.SystemLine != 0 {
		fmt.Fprintf(&b, "system %s\n", strings.Join(s.Systems, " "))
	}
	if s.SeedLine != 0 {
		fmt.Fprintf(&b, "seed %d\n", s.Seed)
	}
	if s.Config != nil {
		formatBlock(&b, "config", s.Config, "")
	}
	for _, cl := range s.Classes {
		fmt.Fprintf(&b, "clients %s %d {\n", cl.Name, cl.Count)
		for _, set := range cl.Settings {
			fmt.Fprintf(&b, "  %s %s\n", set.Key, set.Val)
		}
		if cl.HasArrivals {
			b.WriteString("  arrivals {\n")
			for _, ph := range cl.Arrivals {
				fmt.Fprintf(&b, "    phase %s", ph.Kind)
				for _, par := range ph.Params {
					fmt.Fprintf(&b, " %s %s", par.Key, par.Val)
				}
				b.WriteString("\n")
			}
			b.WriteString("  }\n")
		}
		if cl.Access != nil {
			formatBlock(&b, "access", cl.Access, "  ")
		}
		b.WriteString("}\n")
	}
	if s.Faults != nil {
		formatBlock(&b, "faults", s.Faults, "")
	}
	if s.Replication != nil {
		formatBlock(&b, "replication", s.Replication, "")
	}
	if s.HasExpect {
		b.WriteString("expect {\n")
		for _, ex := range s.Expects {
			fmt.Fprintf(&b, "  %s\n", ex)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func formatBlock(b *strings.Builder, name string, blk *Block, indent string) {
	fmt.Fprintf(b, "%s%s {\n", indent, name)
	for _, set := range blk.Settings {
		fmt.Fprintf(b, "%s  %s %s\n", indent, set.Key, set.Val)
	}
	fmt.Fprintf(b, "%s}\n", indent)
}
