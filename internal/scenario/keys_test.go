package scenario

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
)

// TestKeyNamesUnique holds the key table to one key per name across
// the config, faults and replication blocks: Set finds a key by name
// alone.
func TestKeyNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, k := range keys {
		if b, dup := seen[k.name]; dup {
			t.Errorf("key %q is in both the %s and the %s block", k.name, b, k.block)
		}
		seen[k.name] = k.block
	}
}

// TestSet drives Set through each way a setting can land or fail.
func TestSet(t *testing.T) {
	cfg := config.Default(4, 0.05)
	for _, kv := range []string{"h1=off", "updates=0.2", "duration=3m", "warmup=0", "pattern=hot-cold", "spike-latency=5ms", "replica=3:1"} {
		if err := Set(&cfg, kv); err != nil {
			t.Fatalf("%s: %v", kv, err)
		}
	}
	if cfg.UseH1 || cfg.UpdateFraction != 0.2 || cfg.Duration.Minutes() != 3 || cfg.Warmup != 0 ||
		cfg.Pattern != config.PatternHotCold || cfg.Faults.SpikeLatency.Milliseconds() != 5 || cfg.Sharding.Replicas[3] != 1 {
		t.Fatalf("settings did not land: %+v", cfg)
	}
	for kv, want := range map[string]string{
		"updates":        `setting "updates": want key=value`,
		"nokey=1":        `unknown key "nokey"`,
		"drop=x":         `drop wants a number, got "x"`,
		"duration=fast":  `duration wants a duration, got "fast"`,
		"db=1.5":         `db wants an integer, got "1.5"`,
		"h2=maybe":       `h2 wants true or false, got "maybe"`,
		"scheduling=lru": `scheduling wants edf or fcfs, got "lru"`,
		"pattern=zipf":   `pattern wants uniform, localized-rw, or hot-cold, got "zipf"`,
		"replica=3":      `replica wants OBJ:SHARD (two non-negative integers), got "3"`,
	} {
		if err := Set(&cfg, kv); err == nil || err.Error() != want {
			t.Errorf("Set(%q) = %v, want %q", kv, err, want)
		}
	}
}

// TestSetCopiesReplicas pins that a replica setting on a copy of a
// Config leaves the original's placements alone.
func TestSetCopiesReplicas(t *testing.T) {
	a := config.Default(4, 0.05)
	if err := Set(&a, "replica=1:1"); err != nil {
		t.Fatal(err)
	}
	b := a
	if err := Set(&b, "replica=2:1"); err != nil {
		t.Fatal(err)
	}
	if len(a.Sharding.Replicas) != 1 || len(b.Sharding.Replicas) != 2 {
		t.Fatalf("replicas a=%v b=%v, want one and two placements", a.Sharding.Replicas, b.Sharding.Replicas)
	}
}

// TestSetReachesClasses holds Set on a compiled scenario to what the
// same settings compiled as config lines give: a clients stanza that
// leaves the update share, the decomposable share or the interarrival
// unset inherits the run-level value when the system is built, so a
// later Set changes what its clients draw.
func TestSetReachesClasses(t *testing.T) {
	const classes = "clients plain 3 {\n}\nclients phased 2 {\n  length 8s\n  arrivals {\n    phase closed duration 1m\n    phase open rate 0.2\n  }\n}\n"
	compile := func(config string) *Compiled {
		t.Helper()
		s, err := Parse("set.rts", "scenario set-reaches-classes\nsystem ls\nconfig {\n  duration 3m\n"+config+"}\n"+classes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	summary := func(cfg config.Config) string {
		t.Helper()
		r, err := rtdbs.Run(rtdbs.LS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("submitted %d committed %d messages %d exclusive %d",
			r.M.Submitted, r.M.Committed, r.TotalMessages, r.M.ExclusiveResponse.Count)
	}
	base := compile("")
	set := base.Config
	for _, kv := range []string{"updates=0.9", "decomposable=0.5", "interarrival=3s"} {
		if err := Set(&set, kv); err != nil {
			t.Fatal(err)
		}
	}
	want := compile("  updates 0.9\n  decomposable 0.5\n  interarrival 3s\n").Config
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("Set and Compile disagree\nSet:     %+v\nCompile: %+v", set, want)
	}
	got, plain := summary(set), summary(base.Config)
	if w := summary(want); got != w {
		t.Fatalf("Set run: %s\ncompiled run: %s", got, w)
	}
	if got == plain {
		t.Fatalf("the settings changed nothing the run shows: %s", got)
	}
}

// TestDocsNameEveryKey holds EXPERIMENTS.md "Writing a scenario" to the
// key table and the metric list: the paragraph on each block's keys
// names every key of that block, and the paragraph on expect lines
// names every rtdbs.Metrics scalar.
func TestDocsNameEveryKey(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Writing a scenario\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Writing a scenario" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	paragraph := func(lead string) string {
		for _, p := range strings.Split(section, "\n\n") {
			if strings.HasPrefix(p, lead) {
				return p
			}
		}
		t.Errorf("no paragraph of \"Writing a scenario\" starts with %s", lead)
		return ""
	}
	for _, k := range keys {
		if k.block == "" {
			continue // Set-only: no scenario can write it
		}
		if p := paragraph("`" + k.block + "` keys"); !strings.Contains(p, "`"+k.name+"`") {
			t.Errorf("the %s keys paragraph does not name `%s`", k.block, k.name)
		}
	}
	p := paragraph("`expect` lines")
	for _, m := range rtdbs.Metrics {
		if !strings.Contains(p, "`"+m.Name+"`") {
			t.Errorf("the expect paragraph does not name metric `%s`", m.Name)
		}
	}
}

// setSource is the scenario FuzzSet compiles: a fixed base, plus the
// line "name val" in the block of the key called name (config when no
// key is).
func setSource(name, val string) string {
	block := "config"
	if k, ok := keyNamed(name); ok {
		block = k.block
	}
	line := func(b string) string {
		if name == "" || b != block {
			return ""
		}
		return "  " + name + " " + val + "\n"
	}
	src := "scenario fuzz-set\nconfig {\n  duration 10m\n" + line("config") + "}\nclients c 4 {\n}\n"
	if block != "config" && name != "" {
		src += block + " {\n" + line(block) + "}\n"
	}
	return src
}

// oneToken reports whether s reads back as itself when it stands as one
// token of a scenario line.
func oneToken(s string) bool {
	f := strings.Fields(s)
	return len(f) == 1 && f[0] == s && !strings.ContainsRune(s, '#')
}

// FuzzSet holds the two ways into the key table to one another. For any
// key=value Set never panics, and Set on a compiled base Config agrees
// with compiling the same setting as a line of its block: both give the
// same whole Config, workload included, or both fail (Set's side
// failing Validate counts, since Compile validates). A Set-only key has
// no line to compare with.
func FuzzSet(f *testing.F) {
	for _, k := range keys {
		f.Add(k.name, "1")
		f.Add(k.name, "off")
	}
	for _, kv := range [][2]string{
		{"duration", "3m"}, {"warmup", "15m"}, {"updates", "1.5"}, {"pattern", "hot-cold"},
		{"spike-rate", "0.1"}, {"spike-latency", "5ms"}, {"servers", "3"}, {"replica", "7:1"},
		{"hot", "2"}, {"partition-shard", "1"}, {"drop", "nan"}, {"nokey", "1"},
	} {
		f.Add(kv[0], kv[1])
	}
	s, err := Parse("base.rts", setSource("", ""))
	if err != nil {
		f.Fatal(err)
	}
	base, err := Compile(s)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, name, val string) {
		cfg := base.Config
		errSet := Set(&cfg, name+"="+val)
		if k, ok := keyNamed(name); ok && k.block == "" || !oneToken(name) || !oneToken(val) || strings.Contains(name, "=") {
			return // not a setting a scenario line can spell
		}
		if errSet == nil {
			errSet = cfg.Validate()
		}
		var compiled config.Config
		s, errC := Parse("fuzz.rts", setSource(name, val))
		if errC == nil {
			var c *Compiled
			if c, errC = Compile(s); errC == nil {
				compiled = c.Config
			}
		}
		if (errSet == nil) != (errC == nil) {
			t.Fatalf("%s=%s: Set gives %v, Compile gives %v", name, val, errSet, errC)
		}
		if errSet == nil && !reflect.DeepEqual(cfg, compiled) {
			t.Fatalf("%s=%s: Set and Compile disagree\nSet:     %+v\nCompile: %+v", name, val, cfg, compiled)
		}
	})
}
