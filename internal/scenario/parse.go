package scenario

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// line is one tokenized source line.
type line struct {
	num  int
	toks []string
}

// scan tokenizes the source: one entry per non-blank line, '#' starting
// a comment, tokens separated by whitespace. Braces must stand alone as
// tokens ("config {", "}").
func scan(src string) []line {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		if j := strings.IndexByte(raw, '#'); j >= 0 {
			raw = raw[:j]
		}
		toks := strings.Fields(raw)
		if len(toks) == 0 {
			continue
		}
		out = append(out, line{num: i + 1, toks: toks})
	}
	return out
}

// parser walks the scanned lines.
type parser struct {
	file  string
	lines []line
	pos   int
}

// Load reads and parses one .rts file.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(src))
}

// Parse parses scenario source. file names the source in diagnostics;
// every error is of the form "file:line: stanza: message".
func Parse(file, src string) (*Scenario, error) {
	p := &parser{file: file, lines: scan(src)}
	return p.scenario()
}

func (p *parser) errf(num int, stanza, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s: %s", p.file, num, stanza, fmt.Sprintf(format, args...))
}

// next returns the next line without consuming it; ok is false at EOF.
func (p *parser) next() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

func (p *parser) advance() { p.pos++ }

// lastLine is the line number errors about unexpected EOF point at.
func (p *parser) lastLine() int {
	if len(p.lines) == 0 {
		return 1
	}
	return p.lines[len(p.lines)-1].num
}

// word checks that tok can stand as a bare name in the grammar.
func validWord(tok string) bool { return tok != "{" && tok != "}" }

func (p *parser) scenario() (*Scenario, error) {
	s := &Scenario{File: p.file}

	first, ok := p.next()
	if !ok {
		return nil, p.errf(1, "scenario", "empty input: expected a scenario NAME line")
	}
	if first.toks[0] != "scenario" {
		return nil, p.errf(first.num, "scenario", "file must start with a scenario NAME line, got %q", first.toks[0])
	}
	if len(first.toks) != 2 || !validWord(first.toks[1]) {
		return nil, p.errf(first.num, "scenario", "want exactly one name: scenario NAME")
	}
	s.Name, s.NameLine = first.toks[1], first.num
	p.advance()

	for {
		ln, ok := p.next()
		if !ok {
			return s, nil
		}
		p.advance()
		var err error
		switch ln.toks[0] {
		case "scenario":
			err = p.errf(ln.num, "scenario", "duplicate scenario line (first on line %d)", s.NameLine)
		case "system":
			err = p.system(s, ln)
		case "seed":
			err = p.seed(s, ln)
		case "config":
			err = p.block(ln, "config", &s.Config)
		case "clients":
			err = p.clients(s, ln)
		case "faults":
			err = p.block(ln, "faults", &s.Faults)
		case "replication":
			err = p.block(ln, "replication", &s.Replication)
		case "expect":
			err = p.expect(s, ln)
		case "}":
			err = p.errf(ln.num, "scenario", "unmatched closing brace")
		default:
			err = p.errf(ln.num, "scenario", "unknown directive %q (want system, seed, config, clients, faults, replication, or expect)", ln.toks[0])
		}
		if err != nil {
			return nil, err
		}
	}
}

func (p *parser) system(s *Scenario, ln line) error {
	if s.SystemLine != 0 {
		return p.errf(ln.num, "system", "duplicate system line (first on line %d)", s.SystemLine)
	}
	names := ln.toks[1:]
	if len(names) == 0 {
		return p.errf(ln.num, "system", "want one or more names: system ce|ce-occ|cs|ls ...")
	}
	for i, name := range names {
		if !validWord(name) {
			return p.errf(ln.num, "system", "a system name cannot be a brace")
		}
		if slices.Contains(names[:i], name) {
			return p.errf(ln.num, "system", "system %s listed twice", name)
		}
	}
	s.Systems, s.SystemLine = names, ln.num
	return nil
}

func (p *parser) seed(s *Scenario, ln line) error {
	if s.SeedLine != 0 {
		return p.errf(ln.num, "seed", "duplicate seed line (first on line %d)", s.SeedLine)
	}
	if len(ln.toks) != 2 {
		return p.errf(ln.num, "seed", "want exactly one value: seed INT")
	}
	n, err := strconv.ParseInt(ln.toks[1], 10, 64)
	if err != nil {
		return p.errf(ln.num, "seed", "%q is not an integer", ln.toks[1])
	}
	s.Seed, s.SeedLine = n, ln.num
	return nil
}

// openBlock checks a "NAME {" header line.
func (p *parser) openBlock(ln line, stanza string) error {
	if len(ln.toks) != 2 || ln.toks[1] != "{" {
		return p.errf(ln.num, stanza, "want %s { opening a block", stanza)
	}
	return nil
}

// block parses a settings-only block (config, faults) into *dst,
// rejecting a second block of the same stanza.
func (p *parser) block(ln line, stanza string, dst **Block) error {
	if *dst != nil {
		return p.errf(ln.num, stanza, "duplicate %s block (first on line %d)", stanza, (*dst).Line)
	}
	if err := p.openBlock(ln, stanza); err != nil {
		return err
	}
	b, err := p.innerBlock(ln.num, stanza)
	if err != nil {
		return err
	}
	*dst = b
	return nil
}

// setting parses one "key value" line.
func (p *parser) setting(ln line, stanza string) (Setting, error) {
	if len(ln.toks) != 2 || !validWord(ln.toks[0]) || !validWord(ln.toks[1]) {
		return Setting{}, p.errf(ln.num, stanza, "want a key value pair, got %d token(s)", len(ln.toks))
	}
	return Setting{Line: ln.num, Key: ln.toks[0], Val: parseValue(ln.toks[1])}, nil
}

func (p *parser) clients(s *Scenario, ln line) error {
	if len(ln.toks) != 4 || ln.toks[3] != "{" {
		return p.errf(ln.num, "clients", "want clients NAME COUNT { opening a block")
	}
	if !validWord(ln.toks[1]) {
		return p.errf(ln.num, "clients", "invalid class name %q", ln.toks[1])
	}
	count, err := strconv.ParseInt(ln.toks[2], 10, 64)
	if err != nil || count <= 0 {
		return p.errf(ln.num, "clients", "count %q must be a positive integer", ln.toks[2])
	}
	cl := ClientsStanza{Name: ln.toks[1], Count: count, Settings: []Setting{}}
	for {
		body, ok := p.next()
		if !ok {
			return p.errf(p.lastLine(), "clients", "missing closing brace for clients %s opened on line %d", cl.Name, ln.num)
		}
		p.advance()
		switch body.toks[0] {
		case "}":
			if len(body.toks) != 1 {
				return p.errf(body.num, "clients", "closing brace must stand alone")
			}
			s.Classes = append(s.Classes, cl)
			return nil
		case "arrivals":
			if cl.HasArrivals {
				return p.errf(body.num, "arrivals", "duplicate arrivals block in clients %s", cl.Name)
			}
			if err := p.openBlock(body, "arrivals"); err != nil {
				return err
			}
			phases, err := p.arrivals(body.num)
			if err != nil {
				return err
			}
			cl.Arrivals, cl.HasArrivals = phases, true
		case "access":
			if cl.Access != nil {
				return p.errf(body.num, "access", "duplicate access block in clients %s", cl.Name)
			}
			if err := p.openBlock(body, "access"); err != nil {
				return err
			}
			blk, err := p.innerBlock(body.num, "access")
			if err != nil {
				return err
			}
			cl.Access = blk
		default:
			set, err := p.setting(body, "clients")
			if err != nil {
				return err
			}
			cl.Settings = append(cl.Settings, set)
		}
	}
}

// innerBlock parses a settings block whose header line was consumed.
func (p *parser) innerBlock(open int, stanza string) (*Block, error) {
	b := &Block{Line: open, Settings: []Setting{}}
	for {
		body, ok := p.next()
		if !ok {
			return nil, p.errf(p.lastLine(), stanza, "missing closing brace for block opened on line %d", open)
		}
		p.advance()
		if body.toks[0] == "}" {
			if len(body.toks) != 1 {
				return nil, p.errf(body.num, stanza, "closing brace must stand alone")
			}
			return b, nil
		}
		set, err := p.setting(body, stanza)
		if err != nil {
			return nil, err
		}
		b.Settings = append(b.Settings, set)
	}
}

// arrivals parses the body of an arrivals block: phase lines only.
func (p *parser) arrivals(open int) ([]PhaseStanza, error) {
	phases := []PhaseStanza{}
	for {
		body, ok := p.next()
		if !ok {
			return nil, p.errf(p.lastLine(), "arrivals", "missing closing brace for block opened on line %d", open)
		}
		p.advance()
		if body.toks[0] == "}" {
			if len(body.toks) != 1 {
				return nil, p.errf(body.num, "arrivals", "closing brace must stand alone")
			}
			return phases, nil
		}
		if body.toks[0] != "phase" {
			return nil, p.errf(body.num, "arrivals", "want phase KIND [key value ...], got %q", body.toks[0])
		}
		if len(body.toks) < 2 || !validWord(body.toks[1]) {
			return nil, p.errf(body.num, "arrivals", "phase needs a kind: phase closed|open|burst|diurnal|flash")
		}
		rest := body.toks[2:]
		if len(rest)%2 != 0 {
			return nil, p.errf(body.num, "arrivals", "phase %s: parameters must come in key value pairs", body.toks[1])
		}
		ph := PhaseStanza{Line: body.num, Kind: body.toks[1], Params: []Setting{}}
		for i := 0; i < len(rest); i += 2 {
			if !validWord(rest[i]) || !validWord(rest[i+1]) {
				return nil, p.errf(body.num, "arrivals", "phase %s: braces cannot appear in parameters", body.toks[1])
			}
			ph.Params = append(ph.Params, Setting{Line: body.num, Key: rest[i], Val: parseValue(rest[i+1])})
		}
		phases = append(phases, ph)
	}
}

// expectOps is the assertion operator set.
var expectOps = map[string]bool{">=": true, "<=": true, "==": true, "~": true}

func (p *parser) expect(s *Scenario, ln line) error {
	if s.HasExpect {
		return p.errf(ln.num, "expect", "duplicate expect block (first on line %d)", s.ExpectLine)
	}
	if err := p.openBlock(ln, "expect"); err != nil {
		return err
	}
	s.HasExpect, s.ExpectLine = true, ln.num
	s.Expects = []ExpectStanza{}
	for {
		body, ok := p.next()
		if !ok {
			return p.errf(p.lastLine(), "expect", "missing closing brace for block opened on line %d", ln.num)
		}
		p.advance()
		if body.toks[0] == "}" {
			if len(body.toks) != 1 {
				return p.errf(body.num, "expect", "closing brace must stand alone")
			}
			return nil
		}
		ex, err := p.expectLine(body)
		if err != nil {
			return err
		}
		s.Expects = append(s.Expects, ex)
	}
}

// expectLine parses "METRIC[SYS] [ARG] OP VALUE [tol VALUE]" and
// "METRIC[SYS] [ARG] OP METRIC[SYS] [ARG] [+|- VALUE]". The right side
// is a metric when it carries a subscript or names one.
func (p *parser) expectLine(ln line) (ExpectStanza, error) {
	fail := func(format string, args ...any) (ExpectStanza, error) {
		return ExpectStanza{}, p.errf(ln.num, "expect", format, args...)
	}
	if slices.ContainsFunc(ln.toks, func(tok string) bool { return !validWord(tok) }) {
		return fail("an assertion cannot hold a brace")
	}
	ex := ExpectStanza{Line: ln.num}
	ex.Metric, ex.Sys = subscript(ln.toks[0])
	rest := ln.toks[1:]
	if len(rest) > 0 && !expectOps[rest[0]] {
		ex.Arg, rest = rest[0], rest[1:]
	}
	if len(rest) < 2 {
		return fail("want METRIC [ARG] OP VALUE, with OP one of >= <= == ~")
	}
	if !expectOps[rest[0]] {
		return fail("unknown operator %q (want >= <= == or ~)", rest[0])
	}
	ex.Op = rest[0]
	follows := []string{"tol"} // what may follow the right side
	if metric, sys := subscript(rest[1]); sys != "" || isMetric(metric) {
		ex.Ref, follows = &Operand{Metric: metric, Sys: sys}, []string{"+", "-"}
		if len(rest) > 2 && !slices.Contains(follows, rest[2]) {
			ex.Ref.Arg, rest = rest[2], rest[1:]
		}
	} else {
		ex.Value = parseValue(rest[1])
	}
	switch rest = rest[2:]; {
	case len(rest) == 0:
	case len(rest) > 2 || !slices.Contains(follows, rest[0]):
		return fail("trailing tokens after assertion (only %s VALUE may follow)", strings.Join(follows, " or "))
	case len(rest) == 1:
		return fail("%s needs a value after it", rest[0])
	case rest[0] == "tol":
		tol := parseValue(rest[1])
		ex.Tol = &tol
	default:
		ex.Sign, ex.Value = rest[0], parseValue(rest[1])
	}
	if ex.Op == "~" && ex.Tol == nil {
		return fail("operator ~ needs a tol VALUE")
	}
	if ex.Op != "~" && ex.Op != "==" && ex.Tol != nil {
		return fail("tol only applies to == and ~ assertions")
	}
	return ex, nil
}

// subscript splits "METRIC[SYS]" into the metric and the system it
// names; a token without a subscript after a name is all metric.
func subscript(tok string) (metric, sys string) {
	i := strings.IndexByte(tok, '[')
	if i <= 0 || !strings.HasSuffix(tok, "]") {
		return tok, ""
	}
	return tok[:i], tok[i+1 : len(tok)-1]
}
