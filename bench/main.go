// Command bench is the repository's benchmark: four named workloads
// over the simulator, each run as a closed, fixed-work batch of cells,
// measured from outside. See README.md beside this file and
// BENCHMARK.json at the repository root.
//
//	bash bench/run.sh [-workload all] [-seed 1] [-reps 3] [-out bench/out/result.json]
//	bash bench/run.sh -workload fig3 -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	// seconds is how long to measure after the warm-up pass; 0 means
	// count passes with reps instead.
	seconds float64
	reps    int
	// trace selects what a single-workload run reports: 0 the
	// end-to-end metrics from untraced passes, 1 the per-layer metrics
	// from instrumented ones.
	trace int
	smoke bool
	out   string
}

// record is one workload's result at one trace setting, as written to
// the result file.
type record struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Host      host   `json:"host"`
	SimDigest string `json:"sim_digest"`
	Passes    int    `json:"passes"`
	// Attempted and Failed count cell runs over every pass, warm-up
	// included; Failures says which and why.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// QuantileSamples is how many committed transactions stand behind
	// sim_txn_p50_s and sim_txn_p99_s.
	QuantileSamples int64             `json:"quantile_samples"`
	Metrics         map[string]sample `json:"metrics"`
	// Cells is the last pass, cell by cell.
	Cells []cellRecord `json:"cells"`
}

// cellRecord is one cell of a record's last pass.
type cellRecord struct {
	Name    string  `json:"name"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	Txns    int64   `json:"txns"`
	MetPct  float64 `json:"deadline_met_pct"`
	Steps   int64   `json:"steps"`
	LiveMB  float64 `json:"live_heap_mb"`
	AllocMB float64 `json:"alloc_mb"`
	Mallocs uint64  `json:"mallocs"`
	Digest  string  `json:"digest"`
	Failure string  `json:"failure,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: fig3, contended_sharded, scale_100k, degraded_mix, or all")
	fs.Int64Var(&o.seed, "seed", 1, "benchmark seed, mixed into every cell's seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure for this long after the warm-up pass (0: count passes with -reps)")
	fs.IntVar(&o.reps, "reps", 3, "timed passes when -seconds is 0")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from instrumented passes")
	fs.BoolVar(&o.smoke, "smoke", false, "virtual durations / 60, client classes / 10, one pass, no expectations: a quick end-to-end check")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out", "result.json"), "result file; traces and per-workload records go beside it")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.trace < 0 || o.trace > 1 || o.reps < 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	rec, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(recordPath(o.out, w.name, o.trace), rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRecord(stdout, rec)
	printResultLine(stdout, rec)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func recordPath(out, workload string, trace int) string {
	return filepath.Join(filepath.Dir(out), fmt.Sprintf("%s.trace%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gate applies the correctness rules that span passes: it counts cell
// runs and failures, and holds every cell to the digest its first run
// produced.
type gate struct {
	rec     *record
	digests map[string]string
}

func (g *gate) add(label string, p *pass) {
	g.rec.SimDigest = p.simDigest()
	g.rec.Cells = g.rec.Cells[:0]
	for i := range p.cells {
		c := &p.cells[i]
		if first, seen := g.digests[c.spec.name]; !seen {
			g.digests[c.spec.name] = c.digest
		} else if first != c.digest {
			c.failf("determinism: digest %s, first run had %s", c.digest, first)
		}
		g.rec.Attempted++
		if c.failure != "" {
			g.rec.Failed++
			g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s, cell %s: %s", label, c.spec.name, c.failure))
		}
		if c.spec.quantiles && c.res != nil {
			g.rec.QuantileSamples = c.res.M.TxnHisto.Count()
		}
		cr := cellRecord{
			Name: c.spec.name, SetupS: c.compileS + c.buildS, RunS: c.runS, Steps: c.steps,
			LiveMB: float64(c.liveHeap) / (1 << 20), AllocMB: float64(c.allocBytes) / (1 << 20), Mallocs: c.mallocs,
			Digest: c.digest, Failure: c.failure,
		}
		if c.res != nil {
			cr.Txns, cr.MetPct = c.res.M.Submitted, c.res.SuccessRate()
		}
		g.rec.Cells = append(g.rec.Cells, cr)
	}
}

// measure runs one workload in this process: a full-size warm-up pass
// that is discarded, then timed passes (trace 0) or untraced and
// instrumented passes in turn followed by the layer drivers (trace 1).
func measure(w *workload, o options) (*record, error) {
	runtime.GOMAXPROCS(pinnedProcs)
	rec := &record{
		Workload: w.name, Seed: o.seed, Trace: o.trace,
		Host:    hostRecord(),
		Metrics: map[string]sample{},
	}
	g := &gate{rec: rec, digests: map[string]string{}}

	if !o.smoke {
		// The first pass of a process runs 10-45% slower than later
		// ones (page faults on a heap that has not grown yet).
		warm := runPass(w, o.seed, false, nil)
		g.add("warm-up", &warm)
	}

	// A calibration reading brackets every pass; see hostFactor.
	calibs := []float64{calibrate()}
	factor := func() float64 {
		calibs = append(calibs, calibrate())
		return hostFactor(calibs[len(calibs)-2], calibs[len(calibs)-1])
	}

	start := time.Now()
	// more decides whether round n+1 runs: always up to floor rounds,
	// then, when measuring by time, while half a round more still ends
	// inside the budget.
	more := func(n, floor int, budget float64, last time.Duration) bool {
		if n < floor {
			return true
		}
		return o.seconds > 0 && !o.smoke && time.Since(start).Seconds()+last.Seconds()/2 < budget
	}

	if o.trace == 0 {
		values := map[string][]float64{}
		floor := o.reps
		switch {
		case o.smoke:
			floor = 1
		case o.seconds > 0:
			floor = 2
		}
		var last time.Duration
		for n := 0; more(n, floor, o.seconds, last); n++ {
			t := time.Now()
			p := runPass(w, o.seed, o.smoke, nil)
			last = time.Since(t)
			g.add(fmt.Sprintf("pass %d", n+1), &p)
			for name, v := range p.endToEndValues(factor()) {
				values[name] = append(values[name], v)
			}
			rec.Passes++
		}
		for _, d := range endToEnd {
			if vs := values[d.name]; len(vs) > 0 {
				rec.Metrics[d.name] = summarize(d.unit, vs)
			}
		}
		rec.Host.CalibNs = median(calibs)
		return rec, nil
	}

	in := &instrumented{rec: newRecorder(w.name)}
	root := in.rec.begin("workload:" + w.name)
	// The drivers take about two seconds; the passes get the rest.
	budget := o.seconds - 2
	var lastPass pass
	var last time.Duration
	for n := 0; more(n, 1, budget, last); n++ {
		t := time.Now()
		if !o.smoke {
			p := runPass(w, o.seed, false, nil)
			g.add(fmt.Sprintf("untraced pass %d", n+1), &p)
			if v := p.endToEndValues(factor()); v != nil {
				in.plainWall = append(in.plainWall, v["wall_s"])
			}
		}
		p, err := in.profiledPass(w, o.seed, o.smoke)
		if err != nil {
			return nil, err
		}
		g.add(fmt.Sprintf("instrumented pass %d", n+1), &p)
		if v := p.endToEndValues(factor()); v != nil {
			in.tracedWall = append(in.tracedWall, v["wall_s"])
		}
		lastPass = p
		last = time.Since(t)
		rec.Passes++
	}
	in.drivers = runDrivers(in.rec, o.smoke)
	in.rec.end(root)
	rec.Host.CalibNs = median(calibs)
	values := in.perLayerValues(&lastPass, rec.Host.CalibNs)
	for _, d := range perLayer {
		rec.Metrics[d.name] = summarize(d.unit, []float64{values[d.name]})
	}
	tracePath := filepath.Join(filepath.Dir(o.out), w.name+".trace.json")
	if err := in.rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	return rec, nil
}

// printRecord prints every metric of the record by name with its unit.
func printRecord(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  passes %d  sim_digest %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Passes, rec.SimDigest)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, calib %.3f ns\n",
		h.CPUModel, h.NProc, h.GoMaxProcs, h.GoVersion, h.GitCommit, h.CalibNs)
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := rec.Metrics[d.name]
		if !ok {
			continue
		}
		if s.N > 1 {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (min %.6g, max %.6g, n=%d)\n", d.name, s.Value, s.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, s.Value, s.Unit)
		}
	}
	if rec.Trace == 0 {
		fmt.Fprintf(w, "  sim_txn quantiles rest on %d committed transactions\n", rec.QuantileSamples)
	}
	fmt.Fprintf(w, "  %-10s %9s %9s %9s %8s %11s %9s %9s %10s  %s\n",
		"cell", "setup_s", "run_s", "txns", "met_%", "steps", "live_MB", "alloc_MB", "mallocs", "digest")
	for _, c := range rec.Cells {
		fmt.Fprintf(w, "  %-10s %9.4f %9.4f %9d %8.2f %11d %9.1f %9.1f %10d  %s %s\n",
			c.Name, c.SetupS, c.RunS, c.Txns, c.MetPct, c.Steps, c.LiveMB, c.AllocMB, c.Mallocs, c.Digest, c.Failure)
	}
	fmt.Fprintf(w, "cells attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

// printResultLine prints the one-line JSON object the benchmark
// contract asks for as the last line of standard output.
func printResultLine(w io.Writer, rec *record) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for name, s := range rec.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rec.Failed == 0,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // floats and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

// resultFile is what -workload all writes and -compare reads.
type resultFile struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Workloads map[string]*merged `json:"workloads"`
}

// merged is one workload's two records side by side.
type merged struct {
	SimDigest string            `json:"sim_digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	PerLayer  map[string]sample `json:"per_layer"`
}

// runAll runs every workload, each setting in a child process of its
// own so that one workload's heap cannot colour the next one's numbers,
// and merges the children's records into the result file.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out := resultFile{Seed: o.seed, Workloads: map[string]*merged{}}
	status := 0
	for _, w := range workloads {
		m := &merged{}
		out.Workloads[w.name] = m
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(trace),
				"-seconds", fmt.Sprint(o.seconds), "-reps", fmt.Sprint(o.reps), "-out", o.out,
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s trace %d: %v\n", w.name, trace, err)
				status = 1
			}
			var rec record
			data, err := os.ReadFile(recordPath(o.out, w.name, trace))
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s trace %d left no record: %v\n", w.name, trace, err)
				status = 1
				continue
			}
			out.Host = rec.Host
			m.Attempted += rec.Attempted
			m.Failed += rec.Failed
			m.Failures = append(m.Failures, rec.Failures...)
			if trace == 0 {
				m.SimDigest, m.EndToEnd = rec.SimDigest, rec.Metrics
			} else {
				m.PerLayer = rec.Metrics
				if rec.SimDigest != m.SimDigest {
					m.Failed++
					m.Failures = append(m.Failures, "determinism: traced and untraced runs disagree on sim_digest")
					status = 1
				}
			}
		}
	}
	if err := writeJSON(o.out, out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", o.out)
	for _, w := range workloads {
		m := out.Workloads[w.name]
		fmt.Fprintf(stdout, "%-18s sim_digest %s  cells attempted %d failed %d\n", w.name, m.SimDigest, m.Attempted, m.Failed)
	}
	return status
}
