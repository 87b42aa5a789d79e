package scenario

import (
	"slices"
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
// without batching reruns with an explicit "batch-window 0" setting
// injected, and each report must stay byte-identical to
// scenarios/golden/. Since every firm request now flows through
// batch.Scheduler.Add unconditionally, this pins the equivalence claim
// of the batching layer — a zero window is not "batching disabled
// upstream" but the scheduler's inline path producing the exact event
// sequence of the unbatched server. (Scenarios that set a positive
// window pin windowed goldens through TestCorpusGoldens instead; the
// scale tier is covered by TestCorpusScale.)
func TestCorpusBatchWindowZero(t *testing.T) {
	var scens []*Scenario
	for _, s := range loadCorpus(t) {
		if batchWindowOf(s) != 0 {
			continue
		}
		setConfig(s, "batch-window", Value{Kind: ValDur, Dur: 0})
		scens = append(scens, s)
	}
	reports, err := RunAll(scens, 8)
	if err != nil {
		t.Fatalf("running corpus at batch-window 0: %v", err)
	}
	for _, r := range reports {
		checkGolden(t, r)
	}
}

// TestCorpusBatchWindowed is the window>0 half of the differential
// harness: the small everyday scenarios — including the lossy
// fault-injection ones — rerun with a positive batch window and the
// continuous invariant monitor attached, which re-checks batch
// request conservation, lock-table consistency, client request
// conservation, and (when traced) the attribution identity at every
// simulation step. Scenarios that list cs or ls also run traced (a
// centralized cell ignores the setting) so the batch-wait sub-bucket
// feeds the attribution identity check. Any
// lost, duplicated, or incompatibly granted request surfaces as a run
// error here.
func TestCorpusBatchWindowed(t *testing.T) {
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
	if _, err := RunAll(scens, 8); err != nil {
		t.Fatalf("windowed corpus run violated an invariant: %v", err)
	}
}

// TestCorpusBatchWindowedDeterminism pins that a windowed run is as
// deterministic as an unbatched one: the same scenarios at the same
// window produce byte-identical reports at different worker counts.
func TestCorpusBatchWindowedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("rerunning the corpus twice is not -short work")
	}
	run := func(parallel int) []*Report {
		var scens []*Scenario
		for _, s := range loadCorpus(t) {
			if s.Population() > 100 {
				continue
			}
			setConfig(s, "batch-window", Value{Kind: ValDur, Dur: 50 * time.Millisecond})
			scens = append(scens, s)
		}
		reports, err := RunAll(scens, parallel)
		if err != nil {
			t.Fatalf("windowed corpus run: %v", err)
		}
		return reports
	}
	base := run(1)
	other := run(8)
	for i, r := range base {
		if got, want := other[i].Format(), r.Format(); got != want {
			t.Errorf("%s: -parallel 8 windowed report differs from -parallel 1\n--- got ---\n%s--- want ---\n%s",
				r.Scenario.Name, got, want)
		}
	}
}
