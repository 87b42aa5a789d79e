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
	"testing"
)

// deadExempt names the exported identifiers of internal packages that
// may stand without a caller, each with its reason. A key is the
// package path, then the receiver type for a method, then the name; a
// key ending in "." covers a whole package.
var deadExempt = map[string]string{
	"siteselect/internal/sim/simtest.":               "test helpers: every caller is a _test.go file by design",
	"siteselect/internal/wal.Log.Records":            "ROADMAP 8(a) decides whether the log is ever read back",
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
	l := &deadLoader{
		fset:    token.NewFileSet(),
		files:   map[string][]*ast.File{},
		checked: map[string]*types.Package{},
		infos:   map[string]*types.Info{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	l.parseModule(t, ".", "siteselect", "bench")
	l.parseModule(t, "bench", "siteselect/bench", "")
	for p := range l.files {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

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
func (l *deadLoader) parseModule(t *testing.T, root, modPath, skip string) {
	if l.recvIdent == nil {
		l.recvIdent = map[*ast.Ident]bool{}
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[p] = pkg
	l.infos[p] = info
	return pkg, nil
}
