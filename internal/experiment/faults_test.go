package experiment

import (
	"strings"
	"testing"
)

// TestFaultMatrixParallelDeterminism is the metamorphic determinism
// check for fault injection at the experiment level: the same master
// seed and fault schedule must render byte-identically whether the
// cells run sequentially or across eight workers. The invariant
// monitor rides along on every cell, so the matrix also exercises the
// continuous checks under drops and partitions.
func TestFaultMatrixParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		opts := Options{
			Scale: 0.05, Seed: 9, Reps: 2,
			Parallel: parallel, CheckInvariants: true,
		}
		fm, err := FaultMatrix(opts, 5, 0.2).Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fm.Render(&sb)
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("fault matrix differs across worker counts:\n--- parallel=1 ---\n%s--- parallel=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "drop 0%") || !strings.Contains(seq, "partition 30s") {
		t.Fatalf("matrix rows missing:\n%s", seq)
	}
}

// TestOutageStudyFaultVariants pins the generalized outage table: the
// legacy three rows keep their names and order (goldens depend on
// them), followed by the two fault-layer partition variants.
func TestOutageStudyFaultVariants(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 1}
	s, err := OutageStudy(opts, 4, 0.2).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"no fault",
		"outage, no log",
		"outage, client WAL",
		"partition, no wipe",
		"server partition",
	}
	if len(s.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(s.Rows), len(want))
	}
	for i, w := range want {
		if s.Rows[i].Name != w {
			t.Fatalf("row %d = %q, want %q", i, s.Rows[i].Name, w)
		}
	}
	var sb strings.Builder
	s.Render(&sb)
	if !strings.Contains(sb.String(), "server partition") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}
