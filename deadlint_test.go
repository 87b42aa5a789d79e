package siteselect_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadExempt names the exported identifiers of internal packages that
// may stand without a caller, each with its reason. A key is the
// package path, then the receiver type for a method, then the name; a
// key ending in "." covers a whole package.
var deadExempt = map[string]string{
	"siteselect/internal/sim/simtest.":               "test helpers: every caller is a _test.go file by design",
	"siteselect/internal/config.Scale":               "population-tier fixture of two test packages: the root benchmarks and the rtdbs footprint pin",
	"siteselect/internal/pagefile.BufferPool.Pinned": "rtdbs's unwind test reads it across the package boundary to catch a leaked pin",
	"siteselect/internal/server.Server.Locks":        "rtdbs's drain test reads it across the package boundary to match client caches against the lock table",
	"siteselect/internal/lockmgr.Table.PlantHolder":  "rtdbs's monitor tests plant incompatible holders in a running shard's table through it; an export_test.go is compiled into its own package's tests only",
	"siteselect/internal/client.Client.PlantRecall":  "rtdbs's monitor tests take a parked recall away from a dirty shared copy through it; an export_test.go is compiled into its own package's tests only",
}

// TestNoDeadExports fails on every exported func, method, type, var or
// const of a package under internal/ that no non-test file of the
// module, or of the benchmark module in bench/, refers to. A method
// that implements an interface method is called through the interface
// and counts as used; the root package is the module's public API and
// is not checked. `make dead-lint` runs it alone.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	l := loadModule(t)

	used := map[string]bool{}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			if !l.recvIdent[id] {
				used[deadKey(obj)] = true
			}
		}
	}

	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for _, p := range l.checked {
		collect(p)
	}
	for _, info := range l.infos { // interface literals, as in a type assertion
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// A method that satisfies an interface is called through it, whether
	// its type declares it or promotes it from an embedded field; a
	// method of a type the root package re-exports by alias is public
	// API.
	for p, pkg := range l.checked {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if tn.IsAlias() {
				if p == "siteselect" {
					ms := types.NewMethodSet(ptr)
					for i := 0; i < ms.Len(); i++ {
						used[deadKey(ms.At(i).Obj())] = true
					}
				}
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						used[deadKey(obj)] = true
					}
				}
			}
		}
	}

	var dead []string
	report := func(obj types.Object) {
		k := deadKey(obj)
		if used[k] || deadExempt[k] != "" || deadExempt[obj.Pkg().Path()+"."] != "" {
			return
		}
		dead = append(dead, k+" ("+l.fset.Position(obj.Pos()).String()+")")
	}
	for p, pkg := range l.checked {
		if !strings.HasPrefix(p, "siteselect/internal/") || pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				report(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					report(m)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported without a caller: %s", d)
	}
	if len(dead) > 0 {
		t.Logf("%d exported identifiers without a caller: delete them, or exempt one in deadExempt with its reason", len(dead))
	}
	for k, why := range deadExempt {
		if why == "" {
			t.Errorf("deadExempt[%q] gives no reason", k)
		}
	}
}

// deadKey names obj by package path, receiver type and name: the same
// declaration reached from two packages has one key.
func deadKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	k := obj.Pkg().Path() + "."
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				k += n.Origin().Obj().Name() + "."
			}
		}
	}
	return k + obj.Name()
}

// TestNoWriteOnlyFields fails on every field of a struct type declared
// at package scope in a package under internal/ that the model writes
// and no non-test file of the module, or of bench/, reads: state without
// a reader. Assigning to a field, incrementing it and naming it as a
// key of a composite literal are writes; every other use is a read. The
// fields of a struct type used as a map key are read by the key's ==,
// and a tagged field is read by reflection. `make dead-lint` runs it
// beside TestNoDeadExports, and deadExempt holds its exemptions too.
func TestNoWriteOnlyFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	l := loadModule(t)
	c := fieldCensus{}
	for p, info := range l.infos {
		c.scan(l.files[p], info)
	}
	var dead []string
	for p, pkg := range l.checked {
		if !strings.HasPrefix(p, "siteselect/internal/") || pkg.Name() == "main" {
			continue
		}
		for _, k := range c.unread(pkg) {
			if deadExempt[k] == "" && deadExempt[p+"."] == "" {
				dead = append(dead, k)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("written, never read: %s", d)
	}
	if len(dead) > 0 {
		t.Logf("%d fields nothing reads: delete them, or exempt one in deadExempt with its reason", len(dead))
	}
}

// fieldCensus holds the struct fields some code reads, by the field's
// generic origin.
type fieldCensus map[*types.Var]bool

// scan records every field read in files, whose type information is
// info (which needs Uses, Types and Selections).
func (c fieldCensus) scan(files []*ast.File, info *types.Info) {
	writes := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true // a struct literal's key; a map's is a value, not a field
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					c.readAll(info.Types[n.X].Type)
				}
			case *ast.CallExpr:
				// A struct passed as an interface is read whole: by ==
				// as a sync.Map key, or by reflection.
				sig, ok := info.Types[n.Fun].Type.(*types.Signature)
				if !ok {
					break
				}
				params := sig.Params()
				for i, arg := range n.Args {
					if params.Len() == 0 {
						break
					}
					pt := params.At(min(i, params.Len()-1)).Type()
					if sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid() {
						pt = pt.(*types.Slice).Elem()
					}
					if types.IsInterface(pt) {
						c.readAll(info.Types[arg].Type)
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			c[v.Origin()] = true
		}
	}
	// A selection through an embedded field reads it, though the
	// source never names it.
	for _, sel := range info.Selections {
		t := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			c[f.Origin()] = true
			t = f.Type()
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			c.readAll(m.Key())
		}
	}
}

// readAll marks every field of a struct type, and of the structs it
// holds, read, as == reads them.
func (c fieldCensus) readAll(t types.Type) {
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		c[f.Origin()] = true
		c.readAll(f.Type())
	}
}

// unread names, package path, type and field, each field of pkg's
// package-scope struct types that nothing scanned reads; a tagged
// field counts as read.
func (c fieldCensus) unread(pkg *types.Package) []string {
	var out []string
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !c[f] && st.Tag(i) == "" {
				out = append(out, pkg.Path()+"."+n+"."+f.Name())
			}
		}
	}
	return out
}

// deadModule is the module and bench/, parsed and type-checked once
// for every lint test that reads them.
var deadModule struct {
	once sync.Once
	l    *deadLoader
	err  error
}

// loadModule returns the checked module, loading it on first use.
func loadModule(t *testing.T) *deadLoader {
	deadModule.once.Do(func() {
		l := &deadLoader{
			fset:      token.NewFileSet(),
			files:     map[string][]*ast.File{},
			checked:   map[string]*types.Package{},
			infos:     map[string]*types.Info{},
			recvIdent: map[*ast.Ident]bool{},
		}
		l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
		deadModule.err = l.parseModule(".", "siteselect", "bench")
		if deadModule.err == nil {
			deadModule.err = l.parseModule("bench", "siteselect/bench", "")
		}
		for p := range l.files {
			if deadModule.err != nil {
				break
			}
			_, deadModule.err = l.Import(p)
		}
		deadModule.l = l
	})
	if deadModule.err != nil {
		t.Fatal(deadModule.err)
	}
	return deadModule.l
}

// deadLoader parses the non-test files of a module tree and
// type-checks them package by package, importing the standard library
// from source. Module packages are checked once and shared, so every
// use of a declaration resolves to one object.
type deadLoader struct {
	fset      *token.FileSet
	std       types.ImporterFrom
	files     map[string][]*ast.File // by import path
	checked   map[string]*types.Package
	infos     map[string]*types.Info
	recvIdent map[*ast.Ident]bool // receiver type names: a declaration, not a use
}

// parseModule parses every buildable non-test file under root, whose
// import path is modPath, skipping testdata and the skip directory.
func (l *deadLoader) parseModule(root, modPath, skip string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (p == skip || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recvIdent[id] = true
					}
					return true
				})
			}
		}
		rel, _ := filepath.Rel(root, dir)
		ip := path.Join(modPath, filepath.ToSlash(rel))
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
}

func (l *deadLoader) Import(p string) (*types.Package, error) {
	return l.ImportFrom(p, "", 0)
}

// ImportFrom checks a module package on first import and hands the
// standard library to the source importer.
func (l *deadLoader) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.checked[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		return l.std.ImportFrom(p, dir, mode)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[p] = pkg
	l.infos[p] = info
	return pkg, nil
}

// TestWriteOnlyFieldRule runs the census over a package written to show
// both halves of the rule.
func TestWriteOnlyFieldRule(t *testing.T) {
	const src = `package p

type counters struct {
	written int
	bumped  int
	keyed   int
	read    int
}

type key struct{ a, b int }

type tagged struct {
	Name string ` + "`json:\"name\"`" + `
}

type box[T any] struct{ v T }

var sink int

func use(m map[key]bool) tagged {
	c := counters{keyed: 1}
	c.written = 2
	c.bumped += 3
	c.bumped++
	sink = c.read
	m[key{1, 2}] = true
	b := box[int]{}
	sink += b.v
	return tagged{}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	c := fieldCensus{}
	c.scan([]*ast.File{f}, info)
	got := c.unread(pkg)
	sort.Strings(got)
	want := []string{"p.counters.bumped", "p.counters.keyed", "p.counters.written"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("write-only fields = %v, want %v", got, want)
	}
}
