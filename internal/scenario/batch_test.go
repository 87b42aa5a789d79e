package scenario

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// setConfig appends a config setting to the scenario, overriding any
// earlier occurrence of the same key (applyConfig applies settings in
// order, so the appended one wins).
func setConfig(s *Scenario, key string, val Value) {
	if s.Config == nil {
		s.Config = &Block{}
	}
	s.Config.Settings = append(s.Config.Settings, Setting{Key: key, Val: val})
}

// batchWindowOf returns the scenario's configured batch window (zero
// when unset).
func batchWindowOf(s *Scenario) time.Duration {
	if s.Config == nil {
		return 0
	}
	var w time.Duration
	for _, set := range s.Config.Settings {
		if set.Key == "batch-window" {
			if d, ok := set.Val.AsDuration(); ok {
				w = d
			}
		}
	}
	return w
}

// TestCorpusBatchWindowZero is the window-0 half of the differential
// harness: every everyday corpus scenario whose golden was pinned
// without batching compiles, with an explicit "batch-window 0" setting
// injected, to exactly the Config of each of its cells that leaving the
// key out does — Table 1's BatchWindow is 0 — and TestCorpusGoldens runs
// those Configs under the monitor and pins their reports. Since every
// firm request flows through batch.Scheduler.Add unconditionally, the
// goldens pin the equivalence claim of the batching layer: a zero window
// is not "batching disabled upstream" but the scheduler's inline path
// producing the exact event sequence of the unbatched server.
// (Scenarios that set a positive window pin windowed goldens through
// TestCorpusGoldens too; the scale tier is covered by TestCorpusScale.)
func TestCorpusBatchWindowZero(t *testing.T) {
	plain := loadCorpus(t)
	selected := 0
	for i, s := range loadCorpus(t) {
		if batchWindowOf(s) != 0 {
			continue
		}
		selected++
		setConfig(s, "batch-window", Value{Kind: ValDur, Dur: 0})
		systems, traced, err := s.plan()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, system := range systems {
			got, err := s.compile(system, traced)
			if err != nil {
				t.Fatalf("%s at batch-window 0: %v", s.Name, err)
			}
			want, err := plain[i].compile(system, traced)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%s): batch-window 0 compiles to\n%+v\nwithout the key to\n%+v", s.Name, system, got.Config, want.Config)
			}
		}
	}
	if selected < 10 {
		t.Fatalf("only %d unbatched scenarios selected, want at least 10", selected)
	}
}

// windowedSelection returns the small everyday scenarios — including
// the lossy fault-injection ones — with a positive batch window and the
// continuous invariant monitor set. Scenarios that list cs or ls also
// run traced (a centralized cell ignores the setting) so the batch-wait
// sub-bucket feeds the attribution identity check.
func windowedSelection(t *testing.T) []*Scenario {
	t.Helper()
	var scens []*Scenario
	for _, s := range loadCorpus(t) {
		if s.Population() > 100 {
			// The monitor audits every event; keep this to the small
			// scenarios (drops scale_smoke's ten thousand clients).
			continue
		}
		setConfig(s, "batch-window", Value{Kind: ValDur, Dur: 50 * time.Millisecond})
		setConfig(s, "invariants", Value{Kind: ValWord, Word: "true"})
		if slices.ContainsFunc(s.Systems, func(sys string) bool { return sys == SystemCS || sys == SystemLS }) {
			setConfig(s, "trace", Value{Kind: ValWord, Word: "true"})
		}
		scens = append(scens, s)
	}
	return scens
}

// windowedRun holds the windowed selection's reports at -parallel 8,
// run once and shared by TestCorpusBatchWindowed and
// TestCorpusBatchWindowedDeterminism so the monitored corpus pass is
// not paid for twice.
var windowedRun struct {
	once    sync.Once
	reports []*Report
	err     error
}

func windowedReports(t *testing.T) ([]*Report, error) {
	t.Helper()
	windowedRun.once.Do(func() {
		windowedRun.reports, windowedRun.err = RunAll(windowedSelection(t), 8)
	})
	return windowedRun.reports, windowedRun.err
}

// TestCorpusBatchWindowed is the window>0 half of the differential
// harness: the windowed selection reruns with the continuous invariant
// monitor attached, which re-checks batch request conservation,
// lock-table consistency, client request conservation, and (when
// traced) the attribution identity at every simulation step. Any lost,
// duplicated, or incompatibly granted request surfaces as a run error
// here.
func TestCorpusBatchWindowed(t *testing.T) {
	scens := windowedSelection(t)
	if len(scens) < 10 {
		t.Fatalf("only %d small scenarios selected, want at least 10", len(scens))
	}
	var faulted bool
	for _, s := range scens {
		if s.Faults != nil {
			faulted = true
		}
	}
	if !faulted {
		t.Fatal("no lossy fault-injection scenario in the windowed selection")
	}
	if _, err := windowedReports(t); err != nil {
		t.Fatalf("windowed corpus run violated an invariant: %v", err)
	}
}

// TestCorpusBatchWindowedDeterminism pins that a windowed run is as
// deterministic as an unbatched one: the monitored, traced windowed
// selection produces byte-identical reports at one worker and at eight.
func TestCorpusBatchWindowedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("rerunning the windowed corpus is not -short work")
	}
	base, err := windowedReports(t)
	if err != nil {
		t.Fatalf("windowed corpus run: %v", err)
	}
	other, err := RunAll(windowedSelection(t), 1)
	if err != nil {
		t.Fatalf("windowed corpus run at -parallel 1: %v", err)
	}
	for i, r := range base {
		if got, want := other[i].Format(), r.Format(); got != want {
			t.Errorf("%s: -parallel 1 windowed report differs from -parallel 8\n--- got ---\n%s--- want ---\n%s",
				r.Scenario.Name, got, want)
		}
	}
}
