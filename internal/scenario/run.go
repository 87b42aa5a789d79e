package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"siteselect/internal/netsim"
	"siteselect/internal/rtdbs"
	"siteselect/internal/trace"
)

// Check is the outcome of one expect assertion.
type Check struct {
	Stanza ExpectStanza
	Got    float64
	Pass   bool
}

// Report is the outcome of one scenario run: the compiled form, the raw
// simulation result, and the evaluated assertions. Its Format output is
// what the golden corpus pins down.
type Report struct {
	Compiled *Compiled
	Result   *rtdbs.Result
	Checks   []Check
}

// Passed reports whether every assertion held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Run compiles and runs the scenario and evaluates its assertions.
func Run(s *Scenario) (*Report, error) {
	c, err := Compile(s)
	if err != nil {
		return nil, err
	}
	res, err := rtdbs.Run(c.Kind, c.Config)
	if err != nil {
		return nil, s.errf(s.NameLine, "scenario", "run failed: %v", err)
	}
	rep := &Report{Compiled: c, Result: res}
	for _, ex := range s.Expects {
		get, _ := metricGetter(ex.Metric, ex.Arg) // Compile validated the names
		got := get(res)
		rep.Checks = append(rep.Checks, Check{Stanza: ex, Got: got, Pass: holds(ex, got)})
	}
	return rep, nil
}

// holds evaluates one assertion against its observed value.
func holds(ex ExpectStanza, got float64) bool {
	want, _ := ex.Value.AsFloat()
	tol := 0.0
	if ex.Tol != nil {
		tol, _ = ex.Tol.AsFloat()
	}
	switch ex.Op {
	case ">=":
		return got >= want
	case "<=":
		return got <= want
	default: // "==" and "~": equal within the (possibly zero) tolerance
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= tol
	}
}

// Format renders the report deterministically — the scenario's golden
// file. Every field is a pure function of the simulation result, so
// two runs of the same scenario text are byte-identical.
func (r *Report) Format() string {
	s, c, res := r.Compiled.Scenario, r.Compiled, r.Result
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	fmt.Fprintf(&b, "system %s\n", c.System)
	fmt.Fprintf(&b, "seed %d\n", c.Config.Seed)
	fmt.Fprintf(&b, "clients %d", c.Config.NumClients)
	for i, cl := range c.Config.Workload.Classes {
		sep := " ("
		if i > 0 {
			sep = ", "
		}
		fmt.Fprintf(&b, "%s%s x%d", sep, cl.Name, cl.Count)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "elapsed %s\n", res.Elapsed)
	for _, m := range rtdbs.Metrics {
		if m.Verb != "" {
			fmt.Fprintf(&b, "%s "+m.Verb+"\n", m.Name, m.Get(res))
		}
	}
	if res.Config.Sharding.Enabled() {
		fmt.Fprintf(&b, "sharding servers %d replicas-installed %d replicas-shed %d forwarded %d\n",
			res.Config.Sharding.NumServers(), res.ReplicasInstalled,
			res.ReplicasShed, res.RequestsForwarded)
	}
	if res.Faults != (netsim.FaultStats{}) {
		b.WriteString("faults")
		for _, fc := range netsim.FaultCounters {
			fmt.Fprintf(&b, " %s %d", fc.Name, fc.Get(res.Faults))
		}
		b.WriteString("\n")
	}
	b.WriteString("messages:\n")
	for k := netsim.KindObjectRequest; k < netsim.NumKinds; k++ {
		st := res.Messages[k]
		fmt.Fprintf(&b, "  %-13s %d msgs %d bytes\n", k, st.Count, st.Bytes)
	}
	if res.MissCauses != nil {
		fmt.Fprintf(&b, "miss_causes %d:\n", res.MissCauses.Missed)
		for cp := trace.Component(0); cp < trace.NumComponents; cp++ {
			fmt.Fprintf(&b, "  %-9s %d\n", cp, res.MissCauses.ByCause[cp])
		}
	}
	if len(r.Checks) > 0 {
		b.WriteString("expect:\n")
		for _, ch := range r.Checks {
			verdict := "PASS"
			if !ch.Pass {
				verdict = "FAIL"
			}
			ex := ch.Stanza
			fmt.Fprintf(&b, "  %s %s", verdict, ex.Metric)
			if ex.Arg != "" {
				fmt.Fprintf(&b, " %s", ex.Arg)
			}
			fmt.Fprintf(&b, " %s %s", ex.Op, ex.Value)
			if ex.Tol != nil {
				fmt.Fprintf(&b, " tol %s", ex.Tol)
			}
			fmt.Fprintf(&b, " (got %s)\n", formatGot(ch.Got))
		}
	}
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "result %s\n", verdict)
	return b.String()
}

// formatGot renders an observed metric: integers exactly, fractions
// with fixed precision.
func formatGot(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// ScaleFloor is the population at or above which a scenario belongs to
// the scale tier: its golden is pinned in the corpus like the rest, but
// running it takes minutes and tens of gigabytes, so everyday corpus
// runs (go test, CI, rtbench -scenario-dir) skip it unless explicitly
// asked for.
const ScaleFloor = 100_000

// SplitScale partitions scenarios into the everyday corpus and the
// scale tier, preserving input order within each batch.
func SplitScale(scens []*Scenario) (everyday, scale []*Scenario) {
	for _, s := range scens {
		if s.Population() >= ScaleFloor {
			scale = append(scale, s)
		} else {
			everyday = append(everyday, s)
		}
	}
	return everyday, scale
}

// LoadDir loads every .rts file directly under dir, sorted by name.
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.rts"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no .rts files in %s", dir)
	}
	out := make([]*Scenario, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// RunAll runs the scenarios on parallel workers and returns their
// reports in input order (a failed scenario leaves a nil report and
// contributes to the joined error). Scenario seeds depend only on the
// scenario name, so batch order and worker count cannot change any
// result.
func RunAll(scens []*Scenario, parallel int) ([]*Report, error) {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(scens) {
		parallel = len(scens)
	}
	reports := make([]*Report, len(scens))
	errs := make([]error, len(scens))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = Run(scens[i])
			}
		}()
	}
	for i := range scens {
		next <- i
	}
	close(next)
	wg.Wait()
	return reports, errors.Join(errs...)
}

// WriteReports writes each report's Format output to dir as
// <scenario-name>.golden, creating dir if needed.
func WriteReports(reports []*Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		path := filepath.Join(dir, r.Compiled.Scenario.Name+".golden")
		if err := os.WriteFile(path, []byte(r.Format()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
