// Command benchjson converts `go test -bench` output into a JSON
// baseline file, so kernel performance can be recorded and compared
// across changes.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/... |
//	    go run ./cmd/benchjson -into BENCH_kernel.json -label post-pr
//
// Records are keyed by (label, benchmark name): re-running with the same
// label replaces that label's records in place, so the file accumulates
// one snapshot per label (e.g. "pre-pr", "post-pr") and the host it was
// measured on: the goos / goarch / cpu lines `go test -bench` prints, the
// Go release and the CPU count. Other lines are ignored; the input is
// echoed to stdout so the tool can sit in a pipe without hiding results.
//
// Diff mode compares two labels already in the file instead of reading
// stdin:
//
//	go run ./cmd/benchjson -into BENCH_kernel.json \
//	    -diff post-pr -label ci \
//	    -warn-bench BenchmarkFigure3,BenchmarkFigure3Batched -warn-over 15
//
// prints a per-benchmark ns/op delta table and, when a named benchmark
// (comma-separated list) regressed past the budget, a `::warning`
// annotation line per regression.
// The exit code stays 0 either way — the diff is informational.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result under one label.
type Record struct {
	Label      string             `json:"label"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the on-disk JSON shape. Hosts says, per label, where its
// numbers were taken (goos, goarch, cpu, go, nproc).
type File struct {
	Hosts   map[string]map[string]string `json:"hosts,omitempty"`
	Records []Record                     `json:"records"`
}

var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	into := flag.String("into", "BENCH_kernel.json", "JSON file to merge records into")
	label := flag.String("label", "current", "label for this snapshot (e.g. pre-pr, post-pr)")
	diffBase := flag.String("diff", "", "compare -label's records in -into against this baseline label instead of reading stdin")
	warnBench := flag.String("warn-bench", "", "with -diff, warn when any of these benchmarks' (comma-separated) ns/op regresses more than -warn-over percent")
	warnOver := flag.Float64("warn-over", 15, "with -diff and -warn-bench, the regression budget in percent")
	flag.Parse()
	if *diffBase != "" {
		data, err := os.ReadFile(*into)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *into, err)
			os.Exit(1)
		}
		// A regression warning is informational, not a failure: the
		// exit code stays 0 so CI treats the diff as non-blocking.
		if _, err := diffLabels(f, *diffBase, *label, *warnBench, *warnOver, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, *into, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, into, label string) error {
	var recs []Record
	host := map[string]string{"go": runtime.Version(), "nproc": strconv.Itoa(runtime.NumCPU())}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseLine(line, label); ok {
			recs = append(recs, r)
		}
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				host[key] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	f := File{Hosts: make(map[string]map[string]string)}
	if data, err := os.ReadFile(into); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("parsing %s: %w", into, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	// Replace this label's version of each incoming benchmark.
	incoming := make(map[string]bool, len(recs))
	for _, r := range recs {
		incoming[r.Name] = true
	}
	kept := f.Records[:0]
	for _, r := range f.Records {
		if r.Label == label && incoming[r.Name] {
			continue
		}
		kept = append(kept, r)
	}
	f.Records = append(kept, recs...)
	f.Hosts[label] = host
	sort.SliceStable(f.Records, func(i, j int) bool {
		if f.Records[i].Label != f.Records[j].Label {
			return f.Records[i].Label < f.Records[j].Label
		}
		return f.Records[i].Name < f.Records[j].Name
	})

	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(into, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d records labeled %q to %s\n", len(recs), label, into)
	return nil
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   100000   11.32 ns/op   0 B/op   0 allocs/op
//
// including custom metrics reported via b.ReportMetric.
func parseLine(line, label string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{
		Label:      label,
		Name:       cpuSuffix.ReplaceAllString(fields[0], ""),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
