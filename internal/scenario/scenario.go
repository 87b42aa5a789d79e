// Package scenario implements the .rts declarative scenario format: a
// line-oriented DSL that describes a complete simulated workload — the
// system under test, heterogeneous client classes with phased arrival
// processes (closed-loop, open-loop Poisson, bursts, diurnal curves,
// flash crowds), access skew with hot-spot drift, fault injection — and
// the scalar assertions its run must satisfy.
//
// A scenario file compiles onto the existing config.Config workload
// layer (config.WorkloadSpec) without touching the deterministic seed
// derivation: the run seed is config.CellSeed keyed by the scenario
// name, and each arrival phase draws from its own per-client derived
// stream, so every scenario is a pure function of its text.
//
// The grammar (one construct per line, # comments, blocks braced):
//
//	scenario NAME
//	system SYS ...                (SYS one of ce, ce-occ, cs, ls)
//	seed INT
//	config { KEY VALUE ... }
//	clients NAME COUNT {
//	    KEY VALUE ...
//	    arrivals { phase KIND [KEY VALUE ...] ... }
//	    access { KEY VALUE ... }
//	}
//	faults { KEY VALUE ... }
//	expect {
//	    METRIC[SYS] [ARG] OP VALUE [tol VALUE]
//	    METRIC[SYS] [ARG] OP METRIC[SYS] [ARG] [+|- VALUE]
//	    ...
//	}
//
// A scenario that lists several systems runs one cell per system, each
// from its system's Table 1 base and all at the same seed, and every
// metric of its assertions names the cell it reads with a subscript
// (success_rate[ls] >= success_rate[cs] + 5). With one system the
// subscript may be left out.
//
// See EXPERIMENTS.md "Writing a scenario" for the full stanza
// reference and a worked example.
package scenario

import (
	"fmt"
	"time"
)

// ValueKind classifies a parsed literal.
type ValueKind int

// Value kinds.
const (
	// ValInt is a 64-bit integer literal ("42").
	ValInt ValueKind = iota + 1
	// ValFloat is a floating-point literal ("0.75", "1e-3").
	ValFloat
	// ValDur is a Go duration literal ("500ms", "1m30s").
	ValDur
	// ValWord is a bare word ("true", "skewed", "lock-wait").
	ValWord
)

// Value is one parsed literal. Exactly the field selected by Kind is
// meaningful; the printer renders each kind so that reparsing yields an
// identical Value (the parse → print → parse round-trip the fuzz
// target checks).
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Dur   time.Duration
	Word  string
}

// String renders the value in its canonical reparseable form.
func (v Value) String() string {
	switch v.Kind {
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValFloat:
		return formatFloat(v.Float)
	case ValDur:
		return v.Dur.String()
	default:
		return v.Word
	}
}

// Setting is one "key value" line inside a block.
type Setting struct {
	Line int
	Key  string
	Val  Value
}

// PhaseStanza is one "phase KIND key value ..." line of an arrivals
// block.
type PhaseStanza struct {
	Line   int
	Kind   string
	Params []Setting
}

// Block is a brace-delimited list of settings (config, faults, access).
type Block struct {
	Line     int
	Settings []Setting
}

// ClientsStanza declares one client class: "clients NAME COUNT { ... }".
type ClientsStanza struct {
	Name  string
	Count int64
	// Settings holds the class workload parameters in file order.
	Settings []Setting
	// Arrivals holds the phase lines (nil when the block is absent).
	Arrivals []PhaseStanza
	// HasArrivals distinguishes an empty arrivals block from none.
	HasArrivals bool
	// Access is the class access block (nil when absent).
	Access *Block
}

// ExpectStanza is one assertion line: "METRIC[SYS] [ARG] OP VALUE
// [tol V]", or, when Ref is set, "METRIC[SYS] [ARG] OP METRIC[SYS]
// [ARG] [+|- VALUE]".
type ExpectStanza struct {
	Line int
	// Operand is the metric on the left.
	Operand
	Op string
	// Ref is the metric on the right (nil for a literal bound). Value is
	// then the offset added to it after Sign ("+" or "-"; "" for none,
	// and Value zero), and the bound itself otherwise.
	Ref   *Operand
	Sign  string
	Value Value
	Tol   *Value
}

// Operand is one metric of an assertion: its name, the system whose
// cell it reads (the subscript; "" when left out) and its argument.
type Operand struct {
	Metric, Sys, Arg string
}

// String renders the operand as it is written.
func (o Operand) String() string {
	s := o.Metric
	if o.Sys != "" {
		s += "[" + o.Sys + "]"
	}
	if o.Arg != "" {
		s += " " + o.Arg
	}
	return s
}

// String renders the assertion in its canonical reparseable form.
func (ex ExpectStanza) String() string {
	s := ex.Operand.String() + " " + ex.Op + " "
	switch {
	case ex.Ref == nil && ex.Tol != nil:
		return s + ex.Value.String() + " tol " + ex.Tol.String()
	case ex.Ref == nil:
		return s + ex.Value.String()
	case ex.Sign != "":
		return s + ex.Ref.String() + " " + ex.Sign + " " + ex.Value.String()
	}
	return s + ex.Ref.String()
}

// Scenario is the parsed form of one .rts file.
type Scenario struct {
	// File is the name Parse was given, used in diagnostics.
	File string

	Name     string
	NameLine int

	// Systems lists the systems the scenario runs, one cell each (nil
	// when the system line is absent: cs alone).
	Systems    []string
	SystemLine int

	Seed     int64
	SeedLine int

	Config  *Block
	Classes []ClientsStanza
	Faults  *Block
	// Replication configures the sharded server's replica placement
	// (nil when the block is absent).
	Replication *Block
	Expects     []ExpectStanza
	// HasExpect distinguishes an empty expect block from none.
	HasExpect  bool
	ExpectLine int
}

// Population is the total client count across every clients stanza —
// what the compiled Config.NumClients will be.
func (s *Scenario) Population() int {
	total := 0
	for _, cl := range s.Classes {
		total += int(cl.Count)
	}
	return total
}

// posError is a diagnostic tied to a file position and stanza.
func (s *Scenario) errf(line int, stanza, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s: %s", s.File, line, stanza, fmt.Sprintf(format, args...))
}
