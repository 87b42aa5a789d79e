package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// compileWorkloads are the two benchmark workloads whose compile cost
// BenchmarkCompile reads (the benchmark's setup of contended_sharded
// and degraded_mix includes it), each with its allocation ceiling.
var compileWorkloads = []struct {
	name   string
	allocs float64
}{
	{"contended_cs", 74},
	{"degraded_lossy", 118},
}

// compileOnce parses and compiles one workload's text.
func compileOnce(tb testing.TB, path string, src string) {
	s, err := Parse(path, src)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := Compile(s); err != nil {
		tb.Fatal(err)
	}
}

func readWorkload(tb testing.TB, name string) (path, src string) {
	path = filepath.Join("..", "..", "bench", "workloads", name+".rts")
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return path, string(b)
}

// BenchmarkCompile parses and compiles benchmark workloads from their
// text (read only).
func BenchmarkCompile(b *testing.B) {
	for _, w := range compileWorkloads {
		path, src := readWorkload(b, w.name)
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compileOnce(b, path, src)
			}
		})
	}
}

// TestCompileAllocs pins what parsing and compiling a workload
// allocates: the ceilings are the readings of the per-key switches the
// key table replaced.
func TestCompileAllocs(t *testing.T) {
	for _, w := range compileWorkloads {
		path, src := readWorkload(t, w.name)
		if got := testing.AllocsPerRun(50, func() { compileOnce(t, path, src) }); got > w.allocs {
			t.Errorf("%s: parse and compile allocate %.0f objects, ceiling %.0f", w.name, got, w.allocs)
		}
	}
}
