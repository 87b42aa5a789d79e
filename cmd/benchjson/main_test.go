package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRunRecordsHostPerLabel: a snapshot carries the host it was taken
// on — the header lines of the benchmark output, the Go release and the
// CPU count — under its label, beside the hosts of the labels already in
// the file, and a label recorded again replaces its own.
func TestRunRecordsHostPerLabel(t *testing.T) {
	into := filepath.Join(t.TempDir(), "bench.json")
	out := func(cpu string) string {
		return "goos: linux\ngoarch: amd64\npkg: siteselect\ncpu: " + cpu + "\nBenchmarkX-2  10  5.0 ns/op\nPASS\n"
	}
	for _, step := range []struct{ label, cpu string }{{"pr20", "old box"}, {"pr21", "new box"}, {"pr21", "newer box"}} {
		if err := run(strings.NewReader(out(step.cpu)), into, step.label); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(into)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "newer box",
		"go": runtime.Version(), "nproc": strconv.Itoa(runtime.NumCPU())}
	if len(f.Hosts) != 2 || !reflect.DeepEqual(f.Hosts["pr21"], want) || f.Hosts["pr20"]["cpu"] != "old box" || len(f.Records) != 2 {
		t.Fatalf("hosts %+v over %d records, want pr20 and pr21 (%+v) over 2", f.Hosts, len(f.Records), want)
	}
}
