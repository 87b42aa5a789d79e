package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares one end-to-end metric of two result files. The
// delta is the change as a share of the base median, signed so that
// positive is worse. A spread (max - min over the passes of either
// file) wider than the bound makes a move that size unreadable:
// "unresolved", unless every pass of the new file beats every pass of
// the base.
func verdict(d metricDef, base, cur sample) (delta float64, v string) {
	if base.Value == 0 {
		return 0, "unresolved"
	}
	delta = (cur.Value - base.Value) / base.Value
	newBeatsAll := cur.Max < base.Min
	if d.better == "higher" {
		delta = -delta
		newBeatsAll = cur.Min > base.Max
	}
	spread := func(s sample) float64 { return (s.Max - s.Min) / base.Value }
	switch {
	case newBeatsAll && delta < 0:
		return delta, "better"
	case spread(base) > d.bound || spread(cur) > d.bound:
		return delta, "unresolved"
	case delta > d.bound:
		return delta, "worse"
	case delta < -d.bound:
		return delta, "better"
	}
	return delta, "within"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 if any metric is worse or more cells failed.
func compareFiles(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(base, cur, stdout)
}

func compareResults(base, cur *resultFile, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "base: %s, calib %.3f ns, seed %d\n", base.Host.CPUModel, base.Host.CalibNs, base.Seed)
	fmt.Fprintf(w, "new:  %s, calib %.3f ns, seed %d\n", cur.Host.CPUModel, cur.Host.CalibNs, cur.Seed)
	fmt.Fprintf(w, "%-18s %-17s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "base", "[min, max] n", "new", "[min, max] n", "delta", "bound", "verdict")
	for _, wl := range workloads {
		b, c := base.Workloads[wl.name], cur.Workloads[wl.name]
		if b == nil || c == nil {
			fmt.Fprintf(w, "%-18s missing from one file\n", wl.name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			bs, cs := b.EndToEnd[d.name], c.EndToEnd[d.name]
			delta, v := verdict(d, bs, cs)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-18s %-17s %12.6g %25s %12.6g %25s %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.name, bs.Value, rangeOf(bs), cs.Value, rangeOf(cs),
				100*delta, 100*d.bound, v)
		}
		digest := "equal"
		if b.SimDigest != c.SimDigest {
			digest = "changed"
		}
		fmt.Fprintf(w, "%-18s sim_digest %s (%s -> %s); cells failed %d/%d -> %d/%d\n",
			wl.name, digest, b.SimDigest, c.SimDigest, b.Failed, b.Attempted, c.Failed, c.Attempted)
		if failedShare(c) > failedShare(b) {
			status = 1
		}
	}
	return status
}

func rangeOf(s sample) string {
	return fmt.Sprintf("[%.5g, %.5g] %d", s.Min, s.Max, s.N)
}

func failedShare(m *merged) float64 {
	if m.Attempted == 0 {
		return 0
	}
	return float64(m.Failed) / float64(m.Attempted)
}
