package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"siteselect/internal/metrics"
)

// declared is the shape of BENCHMARK.json this package must match.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesBenchmarkJSON keeps the metric and workload
// tables in this package and BENCHMARK.json at the repository root in
// step, and both inside the limits the file's contract sets.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(decl), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			m := decl[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed alphabet", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("%s: %s declared twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound declared %v, defined %g, want the same in (0, 0.25]", kind, d.name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	for bucket, metric := range cpuBuckets {
		found := false
		for _, d := range perLayer {
			found = found || d.name == metric
		}
		if !found {
			t.Errorf("cpu bucket %s reports %s, which is not declared", bucket, metric)
		}
	}
}

// TestSmoke runs all four workloads end to end at a sixtieth of their
// virtual length, both trace settings, and checks that each prints
// exactly the declared metrics, that the cpu shares sum to one, and that
// a span file comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-client population")
	}
	start := time.Now()
	out := filepath.Join(t.TempDir(), "result.json")
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			rec, err := measure(&w, options{seed: 1, reps: 1, trace: trace, smoke: true, out: out})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if rec.Failed != 0 || rec.Attempted != len(w.cells) {
				t.Errorf("%s trace %d: attempted %d failed %d: %v", w.name, trace, rec.Attempted, rec.Failed, rec.Failures)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, %d declared", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := rec.Metrics[d.name]; !ok {
					t.Errorf("%s trace %d: %s missing", w.name, trace, d.name)
				}
			}
			var line bytes.Buffer
			printResultLine(&line, rec)
			var parsed struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || parsed.Correct == nil ||
				parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(defs) {
				t.Errorf("%s trace %d: bad result line %s (%v)", w.name, trace, line.String(), err)
			}
			if trace == 0 {
				for _, d := range defs {
					if rec.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, rec.Metrics[d.name].Value)
					}
				}
				continue
			}
			if rec.Metrics["bench.profile_samples"].Value > 0 {
				sum := 0.0
				for _, metric := range cpuBuckets {
					sum += rec.Metrics[metric].Value
				}
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s: cpu shares sum to %g", w.name, sum)
				}
			}
			data, err := os.ReadFile(filepath.Join(filepath.Dir(out), w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []struct {
					Name string
					Dur  float64
					Args struct{ Parent int }
				}
			}
			if err := json.Unmarshal(data, &tr); err != nil {
				t.Fatalf("%s: span file: %v", w.name, err)
			}
			names := map[string]bool{}
			for _, e := range tr.TraceEvents {
				names[e.Name] = true
			}
			for _, want := range []string{"workload:" + w.name, "pass", "cell:" + w.cells[0].name, "compile", "build", "run", "driver.sim.machine_switch_ns"} {
				if !names[want] {
					t.Errorf("%s: span file has no %q span", w.name, want)
				}
			}
		}
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("smoke took %v, want under 10 s", el)
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "cell", parent: -1, start: 0, end: 100},
		{name: "build", parent: 0, start: 10, end: 30},
		{name: "run", parent: 0, start: 30, end: 90},
		{name: "inner", parent: 2, start: 40, end: 50},
	}}
	self := r.selfTimes()
	for i, want := range []time.Duration{20, 20, 50, 10} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", r.spans[i].name, self[i], want)
		}
	}
	if got := r.total(0, "cell", "run"); got != 60 {
		t.Errorf("total run under cell = %d, want 60", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var h metrics.Histogram
	// 100 samples in [1.05 s, 2.1 s) (bucket 2^20 us), 100 in the next.
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Millisecond)
		h.Observe(3 * time.Second)
	}
	lo, hi := float64(1<<20)/1e6, float64(1<<21)/1e6
	if got := quantile(&h, 0.25); got <= lo || got >= hi {
		t.Errorf("p25 = %g, want inside (%g, %g)", got, lo, hi)
	}
	if got := quantile(&h, 0.50); got < hi*0.999 || got > hi*1.001 {
		t.Errorf("p50 = %g, want the bucket bound %g", got, hi)
	}
	if p75, p99 := quantile(&h, 0.75), quantile(&h, 0.99); p75 <= hi || p99 <= p75 || p99 >= 2*hi {
		t.Errorf("p75 = %g, p99 = %g, want %g < p75 < p99 < %g", p75, p99, hi, 2*hi)
	}
	if got := quantile(&metrics.Histogram{}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.05}
	higher := metricDef{"txn_per_s", "txn/s", "higher", 0.05}
	s := func(v, min, max float64) sample { return sample{Value: v, Min: min, Max: max, N: 3} }
	for _, tc := range []struct {
		d         metricDef
		base, cur sample
		want      string
	}{
		{lower, s(10, 9.9, 10.1), s(10.2, 10.1, 10.3), "within"},
		{lower, s(10, 9.9, 10.1), s(10.8, 10.7, 10.9), "worse"},
		{lower, s(10, 9.9, 10.1), s(9, 8.9, 9.1), "better"},
		{lower, s(10, 9, 11), s(10.8, 10.7, 10.9), "unresolved"},
		{lower, s(10, 9, 11), s(8, 7.5, 8.5), "better"}, // every new pass beats every base pass
		{higher, s(100, 99, 101), s(90, 89, 91), "worse"},
		{higher, s(100, 99, 101), s(110, 109, 111), "better"},
		{higher, s(100, 99, 101), s(101, 100, 102), "within"},
	} {
		if _, got := verdict(tc.d, tc.base, tc.cur); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.name, tc.base, tc.cur, got, tc.want)
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	mk := func(wall float64, failed int) *resultFile {
		r := &resultFile{Workloads: map[string]*merged{}}
		for _, w := range workloads {
			m := &merged{SimDigest: "d", Attempted: 10, Failed: failed, EndToEnd: map[string]sample{}}
			for _, d := range endToEnd {
				m.EndToEnd[d.name] = sample{Value: 1, Min: 1, Max: 1, N: 3}
			}
			m.EndToEnd["wall_s"] = sample{Value: wall, Min: wall, Max: wall, N: 3}
			r.Workloads[w.name] = m
		}
		return r
	}
	var out bytes.Buffer
	if st := compareResults(mk(1, 0), mk(1.01, 0), &out); st != 0 {
		t.Errorf("a 1%% move inside the bound exits %d:\n%s", st, out.String())
	}
	if st := compareResults(mk(1, 0), mk(1.5, 0), &out); st != 1 {
		t.Errorf("a 50%% slowdown exits %d", st)
	}
	if st := compareResults(mk(1, 0), mk(1, 1), &out); st != 1 {
		t.Errorf("a newly failing cell exits %d", st)
	}
	if !strings.Contains(out.String(), "sim_digest equal") {
		t.Errorf("no digest line in:\n%s", out.String())
	}
}
