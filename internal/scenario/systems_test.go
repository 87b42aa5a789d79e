package scenario

import (
	"strings"
	"testing"
)

// section cuts a report down to its cells' sections: without the
// scenario line, the expect block and the result line.
func section(report string) string {
	_, rest, _ := strings.Cut(report, "\n")
	for _, end := range []string{"expect:\n", "result "} {
		if i := strings.Index(rest, "\n"+end); i >= 0 {
			return rest[:i+1]
		}
	}
	return rest
}

// TestSystemsRunApart is the differential test of the scenarios that
// compare systems: each system's section of such a corpus scenario's
// report equals the report of the scenario with the same name and text
// run on that system alone, with the assertions that read only its
// cell (so a miss_share still turns its tracing on), and every cell
// runs at one seed: the cells share the seed and do not affect each
// other.
func TestSystemsRunApart(t *testing.T) {
	var multi, single []*Scenario
	for _, s := range loadCorpus(t) {
		if len(s.Systems) < 2 {
			continue
		}
		if _, err := Compile(s); err == nil || !strings.Contains(err.Error(), "Compile lowers one") {
			t.Errorf("%s: Compile of a multi-system scenario: err = %v", s.Name, err)
		}
		multi = append(multi, s)
		for _, system := range s.Systems {
			one := *s
			one.Systems, one.Expects = []string{system}, nil
			for _, ex := range s.Expects {
				if ex.Sys == system && (ex.Ref == nil || ex.Ref.Sys == system) {
					one.Expects = append(one.Expects, ex)
				}
			}
			single = append(single, &one)
		}
	}
	if len(multi) < 5 {
		t.Fatalf("corpus has %d multi-system scenarios, want at least 5", len(multi))
	}
	reports, err := RunAll(append(multi, single...), 8)
	if err != nil {
		t.Fatal(err)
	}
	alone := reports[len(multi):]
	for i, s := range multi {
		for _, c := range reports[i].Cells {
			if c.Config.Seed != reports[i].Cells[0].Config.Seed {
				t.Errorf("%s: cell %s runs at seed %d, cell %s at %d", s.Name,
					c.System, c.Config.Seed, reports[i].Cells[0].System, reports[i].Cells[0].Config.Seed)
			}
		}
		var want strings.Builder
		for range s.Systems {
			want.WriteString(section(alone[0].Format()))
			alone = alone[1:]
		}
		if got := section(reports[i].Format()); got != want.String() {
			t.Errorf("%s: sections differ from the one-system reports\n--- got ---\n%s--- want ---\n%s", s.Name, got, want.String())
		}
	}
}

// TestMissShareTracesItsCell pins that miss_share[SYS] turns tracing on
// in the cell it reads and in no other.
func TestMissShareTracesItsCell(t *testing.T) {
	s, err := Parse("t.rts", "scenario t\nsystem cs ls\nconfig {\n  duration 1m\n}\nclients a 2 {\n}\nexpect {\n  miss_share[ls] queue >= 0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	systems, traced, err := s.plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range systems {
		c, err := s.compile(system, traced)
		if err != nil {
			t.Fatal(err)
		}
		if c.Config.Trace != (system == SystemLS) {
			t.Errorf("cell %s: Trace = %v", system, c.Config.Trace)
		}
	}
}
